"""Outer-product kernel tests: vectorised kernel, exact heap merge, profile."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.formats import CSCMatrix, SparseVector
from repro.hardware import Geometry, HWMode, Region
from repro.spmv import (
    bfs_semiring,
    cf_semiring,
    outer_product,
    reference_spmv,
    spmv_semiring,
    sssp_semiring,
)

from ..hardware.trace_oracle import exact_op, traced_op


@pytest.fixture
def geom():
    return Geometry(2, 4)


def frontier_for(csc, density, rng):
    nnz = max(1, int(density * csc.n_cols))
    idx = rng.choice(csc.n_cols, nnz, replace=False)
    return SparseVector(csc.n_cols, idx, rng.uniform(0.5, 1.5, nnz))


class TestFunctional:
    def test_matches_dense_product(self, small_dense, small_csc, geom, rng):
        sv = frontier_for(small_csc, 0.2, rng)
        res = outer_product(small_csc, sv, spmv_semiring(), geom, HWMode.PC)
        assert np.allclose(res.values, small_dense @ sv.to_dense())

    def test_exact_merge_matches_fast_path(self, small_dense, small_csc, geom, rng):
        sv = frontier_for(small_csc, 0.3, rng)
        fast = outer_product(small_csc, sv, spmv_semiring(), geom, HWMode.PS)
        exact = exact_op(small_csc, sv, spmv_semiring(), geom, HWMode.PS)
        assert np.allclose(fast.values, exact.values)

    def test_min_semiring_exact(self, small_dense, small_csc, geom, rng):
        sr = bfs_semiring()
        sv = frontier_for(small_csc, 0.15, rng)
        res = exact_op(small_csc, sv, sr, geom, HWMode.PC)
        dense = np.full(small_csc.n_cols, np.inf)
        dense[sv.indices] = sv.values
        ref = reference_spmv(small_dense, dense, sr)
        assert np.allclose(res.values, ref, equal_nan=True)

    def test_carry_semiring(self, small_dense, small_csc, geom, rng):
        sr = sssp_semiring()
        cur = rng.random(small_csc.n_rows) * 5
        sv = frontier_for(small_csc, 0.2, rng)
        res = exact_op(small_csc, sv, sr, geom, HWMode.PC, current=cur)
        dense = np.full(small_csc.n_cols, np.inf)
        dense[sv.indices] = sv.values
        assert np.allclose(res.values, reference_spmv(small_dense, dense, sr, cur))

    def test_empty_frontier(self, small_csc, geom):
        res = outer_product(
            small_csc, SparseVector.empty(small_csc.n_cols), spmv_semiring(), geom, HWMode.PC
        )
        assert not res.touched.any()
        assert np.allclose(res.values, 0.0)

    def test_touched_only_reachable_rows(self, small_csc, geom, rng):
        sv = frontier_for(small_csc, 0.1, rng)
        res = outer_product(small_csc, sv, spmv_semiring(), geom, HWMode.PC)
        rows, _, _ = small_csc.gather_columns(sv.indices)
        expect = np.zeros(small_csc.n_rows, dtype=bool)
        expect[rows] = True
        assert np.array_equal(res.touched, expect)


class TestValidation:
    def test_rejects_scs(self, small_csc, geom):
        sv = SparseVector.empty(small_csc.n_cols)
        with pytest.raises(ConfigurationError):
            outer_product(small_csc, sv, spmv_semiring(), geom, HWMode.SCS)

    def test_accepts_sc_for_fig9_pricing(self, small_csc, geom, rng):
        sv = frontier_for(small_csc, 0.1, rng)
        res = outer_product(small_csc, sv, spmv_semiring(), geom, HWMode.SC)
        assert res.profile.mode is HWMode.SC

    def test_rejects_dense_frontier(self, small_csc, geom):
        with pytest.raises(ShapeError):
            outer_product(
                small_csc, np.ones(small_csc.n_cols), spmv_semiring(), geom, HWMode.PC
            )

    def test_rejects_wrong_length(self, small_csc, geom):
        with pytest.raises(ShapeError):
            outer_product(
                small_csc, SparseVector.empty(3), spmv_semiring(), geom, HWMode.PC
            )

    def test_rejects_vector_valued_semirings(self, small_csc, geom):
        with pytest.raises(ConfigurationError):
            outer_product(
                small_csc,
                SparseVector.empty(small_csc.n_cols),
                cf_semiring(k=2),
                geom,
                HWMode.PC,
            )


class TestProfile:
    def test_only_touched_entries_counted(self, medium_csc, geom, rng):
        sv = frontier_for(medium_csc, 0.05, rng)
        res = outer_product(medium_csc, sv, spmv_semiring(), geom, HWMode.PC)
        meta = res.profile.meta
        assert meta["touched_columns"] == sv.nnz
        rows, _, _ = medium_csc.gather_columns(sv.indices)
        assert meta["touched_entries"] == len(rows)
        p = res.profile
        matrix_words = p.count[p.region == Region.MATRIX].sum()
        assert matrix_words == 2 * len(rows)

    def test_ps_heap_in_spm(self, medium_csc, geom, rng):
        sv = frontier_for(medium_csc, 0.05, rng)
        res = outer_product(medium_csc, sv, spmv_semiring(), geom, HWMode.PS)
        p = res.profile
        assert p.in_spm[p.region == Region.HEAP].any()

    def test_pc_heap_not_in_spm(self, medium_csc, geom, rng):
        sv = frontier_for(medium_csc, 0.05, rng)
        res = outer_product(medium_csc, sv, spmv_semiring(), geom, HWMode.PC)
        assert not res.profile.in_spm.any()

    def test_lcp_serial_work_present(self, medium_csc, geom, rng):
        sv = frontier_for(medium_csc, 0.1, rng)
        res = outer_product(medium_csc, sv, spmv_semiring(), geom, HWMode.PC)
        assert res.profile.lcp_serial_elements.sum() > 0
        assert res.profile.lcp_output_words.sum() > 0

    def test_exact_mode_measures_heap_accesses(self, small_csc, geom, rng):
        sv = frontier_for(small_csc, 0.2, rng)
        res = exact_op(small_csc, sv, spmv_semiring(), geom, HWMode.PS)
        p = res.profile
        assert p.count[p.region == Region.HEAP].sum() > 0

    def test_trace_generation(self, small_csc, geom, rng):
        sv = frontier_for(small_csc, 0.2, rng)
        _res, traces = traced_op(small_csc, sv, spmv_semiring(), geom, HWMode.PS)
        assert len(traces) == geom.n_pes
        assert all(t is not None for t in traces)

    def test_unbalanced_tiles(self, powerlaw_coo, geom, rng):
        csc = CSCMatrix.from_coo(powerlaw_coo)
        sv = frontier_for(csc, 0.1, rng)
        bal = outer_product(csc, sv, spmv_semiring(), geom, HWMode.PC, balanced=True)
        naive = outer_product(
            csc, sv, spmv_semiring(), geom, HWMode.PC, balanced=False
        )
        assert np.allclose(bal.values, naive.values)  # same math either way
