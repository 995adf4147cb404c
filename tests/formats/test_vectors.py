"""Unit tests for the dense/sparse frontier vectors and conversions."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import (
    ConversionCost,
    DenseVector,
    SparseVector,
    conversion_cost,
    dense_to_sparse,
    ensure_dense,
    ensure_sparse,
    sparse_to_dense,
    vector_density,
)


class TestSparseVector:
    def test_sorts_indices(self):
        sv = SparseVector(10, [7, 2, 5], [1.0, 2.0, 3.0])
        assert list(sv.indices) == [2, 5, 7]
        assert list(sv.values) == [2.0, 3.0, 1.0]

    def test_rejects_duplicates(self):
        with pytest.raises(FormatError):
            SparseVector(5, [1, 1], [1.0, 2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            SparseVector(5, [5], [1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(FormatError):
            SparseVector(5, [1, 2], [1.0])

    def test_density(self):
        sv = SparseVector(10, [1, 2], [1.0, 2.0])
        assert sv.density == pytest.approx(0.2)
        assert SparseVector.empty(0).density == 0.0

    def test_dense_round_trip(self, rng):
        dense = (rng.random(50) < 0.3) * rng.random(50)
        sv = SparseVector.from_dense(dense)
        assert np.allclose(sv.to_dense(), dense)

    def test_explicit_zero_is_structural(self):
        sv = SparseVector(4, [1], [0.0])
        assert sv.nnz == 1  # BFS puts vertices with value 0 on frontiers

    def test_chunk_partitions_entries(self):
        sv = SparseVector(100, np.arange(0, 100, 3), np.ones(34))
        chunks = sv.chunk(5)
        assert len(chunks) == 5
        assert sum(len(c[0]) for c in chunks) == sv.nnz
        sizes = [len(c[0]) for c in chunks]
        assert max(sizes) - min(sizes) <= 1  # LCP distributes evenly

    def test_chunk_more_chunks_than_entries(self):
        sv = SparseVector(10, [3], [1.0])
        chunks = sv.chunk(4)
        assert sum(len(c[0]) for c in chunks) == 1

    def test_chunk_rejects_nonpositive(self):
        with pytest.raises(FormatError):
            SparseVector.empty(4).chunk(0)


class TestDenseVector:
    def test_density_counts_nonzeros(self):
        dv = DenseVector([0.0, 1.0, 0.0, 2.0])
        assert dv.nnz == 2
        assert dv.density == pytest.approx(0.5)

    def test_rejects_2d(self):
        with pytest.raises(FormatError):
            DenseVector(np.ones((2, 2)))

    def test_zeros_and_full(self):
        assert DenseVector.zeros(4).nnz == 0
        assert DenseVector.full(4, 2.5).nnz == 4

    def test_copy_is_independent(self):
        a = DenseVector.zeros(3)
        b = a.copy()
        b.data[0] = 1.0
        assert a.data[0] == 0.0

    def test_to_sparse_round_trip(self, rng):
        data = (rng.random(30) < 0.4) * rng.random(30)
        dv = DenseVector(data)
        assert np.allclose(dv.to_sparse().to_dense(), data)


class TestConversions:
    def test_dense_to_sparse_cost(self):
        dv = DenseVector(np.asarray([0.0, 1.0, 2.0, 0.0]))
        sv, cost = dense_to_sparse(dv)
        assert sv.nnz == 2
        assert cost.reads == 4  # scan the dense array
        assert cost.writes == 4  # two (index, value) pairs

    def test_sparse_to_dense_cost(self):
        sv = SparseVector(6, [1, 3], [1.0, 2.0])
        dv, cost = sparse_to_dense(sv)
        assert dv.nnz == 2
        assert cost.reads == 4
        assert cost.writes == 6 + 2

    def test_same_format_is_free_and_unknown_rejected(self):
        assert conversion_cost("dense", "dense", 6, 2) == ConversionCost()
        assert conversion_cost("sparse", "sparse", 6, 2) == ConversionCost()
        with pytest.raises(FormatError):
            conversion_cost("sparse", "blocked", 6, 2)

    def test_ensure_dense_noop(self):
        dv = DenseVector.zeros(4)
        out, cost = ensure_dense(dv)
        assert out is dv
        assert cost.words == 0

    def test_ensure_sparse_noop(self):
        sv = SparseVector.empty(4)
        out, cost = ensure_sparse(sv)
        assert out is sv
        assert cost.words == 0

    def test_ensure_dense_from_raw_array(self):
        out, cost = ensure_dense(np.ones(3))
        assert isinstance(out, DenseVector)
        assert cost.words == 0

    def test_cost_addition(self):
        total = ConversionCost(1, 2) + ConversionCost(3, 4)
        assert total.reads == 4
        assert total.writes == 6
        assert total.words == 10

    def test_vector_density_dispatch(self):
        assert vector_density(DenseVector([0.0, 1.0])) == 0.5
        assert vector_density(SparseVector(4, [0], [1.0])) == 0.25
        assert vector_density(np.asarray([0.0, 0.0, 3.0])) == pytest.approx(1 / 3)
        assert vector_density(np.zeros(0)) == 0.0
