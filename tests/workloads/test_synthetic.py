"""Workload generator tests, incl. property-based and networkx checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.formats import COOMatrix
from repro.workloads import chung_lu, power_law_degrees, rmat, uniform_random
from repro.workloads.synthetic import _finalize


class TestUniform:
    def test_target_nnz_hit_when_sparse(self):
        m = uniform_random(1000, nnz=5000, seed=1)
        assert m.nnz == pytest.approx(5000, rel=0.01)

    def test_density_spec(self):
        m = uniform_random(500, density=0.01, seed=2)
        assert m.density == pytest.approx(0.01, rel=0.05)

    def test_rejects_both_specs(self):
        with pytest.raises(WorkloadError):
            uniform_random(10, nnz=5, density=0.1)

    def test_rejects_neither_spec(self):
        with pytest.raises(WorkloadError):
            uniform_random(10)

    def test_rejects_impossible_nnz(self):
        with pytest.raises(WorkloadError):
            uniform_random(4, nnz=100)

    def test_rejects_bad_density(self):
        with pytest.raises(WorkloadError):
            uniform_random(4, density=1.5)

    def test_reproducible(self):
        a = uniform_random(100, nnz=500, seed=7)
        b = uniform_random(100, nnz=500, seed=7)
        assert a.allclose(b)

    def test_weighted_values_in_range(self):
        m = uniform_random(100, nnz=500, seed=3, weighted=True)
        assert m.vals.min() >= 1.0 and m.vals.max() <= 10.0

    def test_unweighted_is_binary(self):
        m = uniform_random(100, nnz=500, seed=3, weighted=False)
        assert set(np.unique(m.vals)) <= {1.0}

    def test_no_self_loops_option(self):
        m = uniform_random(50, nnz=400, seed=4, remove_self_loops=True)
        assert not np.any(m.rows == m.cols)

    @given(st.integers(10, 300), st.integers(0, 1000), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bounds_property(self, n, nnz, seed):
        nnz = min(nnz, n * n)
        m = uniform_random(n, nnz=nnz, seed=seed)
        assert m.nnz <= nnz
        assert m.shape == (n, n)
        if m.nnz:
            assert m.rows.max() < n and m.cols.max() < n


class TestChungLu:
    def test_skewed_degrees(self):
        m = chung_lu(2000, 20000, seed=5)
        deg = m.col_counts()
        assert deg.max() > 8 * max(deg.mean(), 1)

    def test_hub_cap(self):
        m = chung_lu(2000, 40000, seed=6)
        # default cap: 2*sqrt(E)
        assert m.col_counts().max() <= 3.0 * np.sqrt(40000)

    def test_uncapped_is_heavier(self):
        capped = chung_lu(2000, 40000, seed=6)
        raw = chung_lu(2000, 40000, seed=6, max_expected_degree=float("inf"))
        assert raw.col_counts().max() > capped.col_counts().max()

    def test_no_self_loops(self):
        m = chung_lu(500, 5000, seed=7)
        assert not np.any(m.rows == m.cols)

    def test_undirected_symmetric(self):
        m = chung_lu(300, 2000, seed=8, directed=False)
        dense = m.to_dense()
        assert np.allclose(dense, dense.T)

    def test_degree_tail_roughly_power_law(self):
        """Cross-check against networkx's expected-degree generator."""
        networkx = pytest.importorskip("networkx")
        w = power_law_degrees(500, exponent=2.1)
        w = w / w.sum() * 5000
        g = networkx.expected_degree_graph(w.tolist(), seed=1, selfloops=False)
        nx_max = max(dict(g.degree()).values())
        ours = chung_lu(500, 5000, seed=1, max_expected_degree=float("inf"))
        our_max = int(ours.col_counts().max() + ours.row_counts().max())
        # same order of magnitude of hub size
        assert 0.2 < our_max / max(nx_max, 1) < 8.0

    def test_rejects_negative_edges(self):
        with pytest.raises(WorkloadError):
            chung_lu(10, -1)

    def test_power_law_degrees_rejects_bad_exponent(self):
        with pytest.raises(WorkloadError):
            power_law_degrees(10, exponent=1.0)


class TestRMAT:
    def test_shape(self):
        m = rmat(8, edge_factor=8, seed=9)
        assert m.n_rows == 256
        assert m.nnz <= 256 * 8

    def test_skewed(self):
        m = rmat(10, edge_factor=16, seed=10)
        deg = m.row_counts()
        assert deg.max() > 4 * max(deg.mean(), 1)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(WorkloadError):
            rmat(4, a=0.6, b=0.3, c=0.2)

    def test_reproducible(self):
        assert rmat(6, seed=11).allclose(rmat(6, seed=11))


class TestFinalize:
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=200),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_skipped_sort_equals_the_sorted_build(
        self, n_rows, n_cols, coords, remove_self_loops
    ):
        # Duplicates and self-loops included; values mark each draw so a
        # wrong survivor among duplicates shows.
        rows = np.array([r % n_rows for r, _ in coords], dtype=np.int64)
        cols = np.array([c % n_cols for _, c in coords], dtype=np.int64)
        vals = np.arange(len(coords), dtype=np.float64)
        got = _finalize(n_rows, n_cols, rows, cols, vals, remove_self_loops)
        want = COOMatrix(n_rows, n_cols, got.rows, got.cols, got.vals)
        for a, b in zip(got.to_arrays(), want.to_arrays()):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
