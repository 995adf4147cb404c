"""MultiVector batch container and absent-aware sparse conversion."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.formats import (
    ConversionCost,
    DenseVector,
    MultiVector,
    SparseVector,
    dense_to_sparse,
    ensure_sparse,
)


class TestConstruction:
    def test_mixed_columns(self):
        sv = SparseVector(6, [1, 4], [2.0, 3.0])
        arr = np.array([0.0, 0.0, 5.0, 0.0, 0.0, 1.0])
        mv = MultiVector([sv, arr, DenseVector(arr)])
        assert mv.shape == (6, 3)
        assert mv.native(0) == "sparse"
        assert mv.native(1) == "dense"
        assert mv.native(2) == "dense"
        assert np.array_equal(mv.column_dense(0), sv.to_dense())
        assert np.array_equal(mv.column_dense(1), arr)

    def test_block_is_column_major(self):
        mv = MultiVector([np.zeros(5), np.ones(5)])
        assert mv.block.flags["F_CONTIGUOUS"]
        assert mv.column_dense(1).flags["C_CONTIGUOUS"]

    def test_absent_fill_for_min_semirings(self):
        sv = SparseVector(4, [2], [0.0])  # live zero-valued entry
        mv = MultiVector([sv], absent=np.inf)
        col = mv.column_dense(0)
        assert col[2] == 0.0
        assert np.all(np.isinf(col[[0, 1, 3]]))
        assert mv.column_nnz(0) == 1

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(FormatError):
            MultiVector([])
        with pytest.raises(ShapeError):
            MultiVector([np.zeros(4), np.zeros(5)])
        with pytest.raises(FormatError):
            MultiVector([np.zeros((2, 2))])

    def test_from_dense(self):
        block = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        mv = MultiVector.from_dense(block)
        assert mv.shape == (3, 2)
        assert mv.column_nnz(0) == 1 and mv.column_nnz(1) == 1
        assert np.array_equal(mv.block, block)


class TestDensityAndViews:
    def test_density_matches_native_semantics(self):
        # A sparse column's explicit absent-valued entry still counts
        # structurally, exactly like SparseVector.density.
        sv = SparseVector(4, [0, 1], [np.inf, 2.0])
        mv = MultiVector([sv], absent=np.inf)
        assert mv.density(0) == sv.density == 0.5
        # A dense column counts entries differing from absent.
        mv2 = MultiVector([np.array([np.inf, 1.0, np.inf, np.inf])], absent=np.inf)
        assert mv2.density(0) == 0.25
        assert np.allclose(mv2.densities, [0.25])

    def test_column_sparse_cached_and_correct(self):
        arr = np.array([0.0, 3.0, 0.0, 4.0])
        mv = MultiVector([arr])
        sv = mv.column_sparse(0)
        assert sv is mv.column_sparse(0)
        assert np.array_equal(sv.indices, [1, 3])
        assert np.array_equal(sv.values, [3.0, 4.0])

    def test_column_sparse_returns_native_object(self):
        sv = SparseVector(4, [2], [1.0])
        mv = MultiVector([sv])
        assert mv.column_sparse(0) is sv

    def test_nnz_totals(self):
        mv = MultiVector([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert mv.nnz == 3


class TestSelect:
    def test_select_preserves_native_repr(self):
        sv = SparseVector(4, [1], [1.0])
        mv = MultiVector([sv, np.array([1.0, 0.0, 0.0, 0.0])])
        sub = mv.select([1, 0])
        assert sub.k == 2
        assert sub.native(0) == "dense" and sub.native(1) == "sparse"
        assert np.array_equal(sub.column_dense(1), sv.to_dense())

    def test_select_bounds(self):
        mv = MultiVector([np.zeros(3)])
        with pytest.raises(FormatError):
            mv.select([])
        with pytest.raises(FormatError):
            mv.select([1])


class TestSparseVectorFromDenseAbsent:
    """SparseVector.from_dense keys on != absent, not != 0."""

    def test_default_absent_zero(self):
        sv = SparseVector.from_dense(np.array([0.0, 2.0, 0.0]))
        assert np.array_equal(sv.indices, [1])

    def test_min_plus_absent_keeps_live_zero(self):
        dense = np.array([np.inf, 0.0, 3.0, np.inf])
        sv = SparseVector.from_dense(dense, absent=np.inf)
        assert np.array_equal(sv.indices, [1, 2])
        assert np.array_equal(sv.values, [0.0, 3.0])

    def test_dense_vector_to_sparse_threads_absent(self):
        dv = DenseVector(np.array([np.inf, 0.0, np.inf]))
        assert dv.to_sparse(absent=np.inf).nnz == 1
        sv, cost = dense_to_sparse(dv, absent=np.inf)
        assert sv.nnz == 1
        assert cost == ConversionCost(reads=3, writes=2)
        sv2, _ = ensure_sparse(dv, absent=np.inf)
        assert sv2.nnz == 1
