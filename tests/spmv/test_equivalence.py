"""Property-based equivalence: IP == OP == loop oracle for any semiring.

This is the invariant the whole framework rests on — software
reconfiguration may never change results, only cost.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix, CSCMatrix, SparseVector
from repro.hardware import Geometry, HWMode
from repro.spmv import (
    bfs_semiring,
    inner_product,
    reference_spmv,
    spmv_semiring,
    scipy_spmv,
    sssp_semiring,
)

from ..hardware.trace_oracle import exact_op

GEOM = Geometry(2, 4)


@st.composite
def matrix_and_frontier(draw):
    n_rows = draw(st.integers(2, 24))
    n_cols = draw(st.integers(2, 24))
    density = draw(st.floats(0.0, 0.4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < density) * rng.uniform(
        0.5, 3.0, (n_rows, n_cols)
    )
    v_density = draw(st.floats(0.0, 1.0))
    nnz_v = int(round(v_density * n_cols))
    idx = rng.choice(n_cols, size=nnz_v, replace=False)
    vals = rng.uniform(0.5, 2.0, size=nnz_v)
    return dense, idx, vals, seed


def run_both(dense, idx, vals, semiring, current=None):
    coo = COOMatrix.from_dense(dense)
    csc = CSCMatrix.from_coo(coo)
    n = dense.shape[1]
    sv = SparseVector(n, idx, vals)
    dv = np.full(n, semiring.absent)
    dv[sv.indices] = sv.values
    ip = inner_product(coo, dv, semiring, GEOM, HWMode.SC, current=current)
    op = exact_op(csc, sv, semiring, GEOM, HWMode.PC, current=current)
    return ip, op, dv


class TestIPOPEquivalence:
    @given(matrix_and_frontier())
    @settings(max_examples=60, deadline=None)
    def test_spmv_semiring(self, mv):
        dense, idx, vals, _ = mv
        sr = spmv_semiring()
        ip, op, dv = run_both(dense, idx, vals, sr)
        assert np.allclose(ip.values, op.values)
        assert np.allclose(ip.values, reference_spmv(dense, dv, sr))
        assert np.array_equal(ip.touched, op.touched)

    @given(matrix_and_frontier())
    @settings(max_examples=40, deadline=None)
    def test_bfs_semiring(self, mv):
        dense, idx, vals, _ = mv
        sr = bfs_semiring()
        ip, op, dv = run_both(dense, idx, vals, sr)
        assert np.allclose(ip.values, op.values, equal_nan=True)
        assert np.allclose(
            ip.values, reference_spmv(dense, dv, sr), equal_nan=True
        )

    @given(matrix_and_frontier())
    @settings(max_examples=40, deadline=None)
    def test_sssp_semiring(self, mv):
        dense, idx, vals, seed = mv
        sr = sssp_semiring()
        rng = np.random.default_rng(seed + 1)
        current = rng.uniform(0.0, 10.0, dense.shape[0])
        ip, op, dv = run_both(dense, idx, vals, sr, current=current)
        assert np.allclose(ip.values, op.values)
        assert np.allclose(ip.values, reference_spmv(dense, dv, sr, current))
        # relaxation never increases a distance
        assert np.all(ip.values <= current + 1e-12)

    @given(matrix_and_frontier())
    @settings(max_examples=40, deadline=None)
    def test_scipy_cross_check(self, mv):
        dense, idx, vals, _ = mv
        coo = COOMatrix.from_dense(dense)
        sv = SparseVector(dense.shape[1], idx, vals)
        ip = inner_product(
            coo, sv.to_dense(), spmv_semiring(), GEOM, HWMode.SCS
        )
        assert np.allclose(ip.values, scipy_spmv(coo, sv.to_dense()))


class TestResultInvariants:
    @given(matrix_and_frontier())
    @settings(max_examples=40, deadline=None)
    def test_untouched_rows_keep_identity(self, mv):
        dense, idx, vals, _ = mv
        sr = spmv_semiring()
        ip, op, _ = run_both(dense, idx, vals, sr)
        assert np.allclose(ip.values[~ip.touched], sr.identity)

    @given(matrix_and_frontier())
    @settings(max_examples=40, deadline=None)
    def test_profiles_price_positive(self, mv):
        from repro.hardware import TransmuterSystem

        dense, idx, vals, _ = mv
        ip, op, _ = run_both(dense, idx, vals, spmv_semiring())
        system = TransmuterSystem(GEOM)
        for res in (ip, op):
            rep = system.evaluate_without_switching(res.profile)
            assert rep.cycles > 0
            assert rep.energy_j > 0
