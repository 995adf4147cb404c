"""User-defined semirings must run unchanged through both kernels.

The paper's programmability claim: new algorithms are just new
Matrix_Op/Vector_Op pairs.  These tests drive a max-min (widest-path)
semiring and a counting semiring through IP and OP.
"""

import numpy as np
import pytest

from repro.formats import COOMatrix, CSCMatrix, SparseVector
from repro.hardware import Geometry, HWMode
from repro.spmv import Semiring, inner_product, reference_spmv

from ..hardware.trace_oracle import exact_op

GEOM = Geometry(2, 4)


def widest() -> Semiring:
    def combine(a, v_src, v_dst, src_idx, dst_idx):
        return np.minimum(v_src, a)

    return Semiring(
        "widest", combine, np.maximum, 0.0, carry_output=True, absent=0.0
    )


def counting() -> Semiring:
    """Counts contributing in-edges (combine ignores values)."""

    def combine(a, v_src, v_dst, src_idx, dst_idx):
        return np.ones_like(np.asarray(a, dtype=np.float64))

    return Semiring("count", combine, np.add, 0.0)


@pytest.fixture
def setting(rng):
    dense = (rng.random((30, 30)) < 0.2) * rng.uniform(1.0, 9.0, (30, 30))
    coo = COOMatrix.from_dense(dense)
    csc = CSCMatrix.from_coo(coo)
    idx = rng.choice(30, 8, replace=False)
    sv = SparseVector(30, idx, rng.uniform(1.0, 5.0, 8))
    return dense, coo, csc, sv


class TestWidestPath:
    def test_ip_op_oracle_agree(self, setting, rng):
        dense, coo, csc, sv = setting
        sr = widest()
        current = rng.uniform(0.0, 2.0, 30)
        dv = np.zeros(30)
        dv[sv.indices] = sv.values
        ip = inner_product(coo, dv, sr, GEOM, HWMode.SC, current=current)
        op = exact_op(csc, sv, sr, GEOM, HWMode.PC, current=current)
        ref = reference_spmv(dense, dv, sr, current)
        assert np.allclose(ip.values, op.values)
        assert np.allclose(ip.values, ref)
        # max-with-carry never decreases anything
        assert np.all(ip.values >= current - 1e-12)


class TestCounting:
    def test_counts_in_edges_from_frontier(self, setting):
        dense, coo, csc, sv = setting
        sr = counting()
        dv = np.zeros(30)
        dv[sv.indices] = sv.values
        ip = inner_product(coo, dv, sr, GEOM, HWMode.SCS)
        op = exact_op(csc, sv, sr, GEOM, HWMode.PS)
        expected = (dense[:, sv.indices] != 0).sum(axis=1).astype(float)
        assert np.allclose(ip.values, expected)
        assert np.allclose(op.values, expected)
