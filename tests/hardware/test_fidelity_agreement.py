"""Cross-fidelity agreement: trace replay and the analytic model must
rank configurations the same way, or the decision layer would behave
differently at different scales.  The paper draws the same line: gem5
up to 8x16, a trace-based model beyond it."""

import numpy as np
import pytest

from repro.formats import CSCMatrix, SparseVector
from repro.hardware import Geometry, HWMode, TransmuterSystem
from repro.spmv import spmv_semiring
from repro.workloads import uniform_random

from .trace_oracle import TraceEngine, traced_ip, traced_op


@pytest.fixture(scope="module")
def setting():
    coo = uniform_random(3000, nnz=40_000, seed=31)
    csc = CSCMatrix.from_coo(coo)
    return coo, csc


def priced(traced, geom):
    """``(analytic cycles, replayed cycles)`` of one traced kernel call,
    neither charged a reconfiguration."""
    result, traces = traced
    analytic = TransmuterSystem(geom).evaluate_without_switching(result.profile)
    replayed = TraceEngine(geom).evaluate(result.profile, traces)
    return analytic.cycles, replayed.cycles


class TestSoftwareChoiceAgreement:
    @pytest.mark.parametrize("density", [0.002, 0.3])
    def test_ip_vs_op_ranking(self, setting, density):
        coo, csc = setting
        geom = Geometry(2, 4)
        rng = np.random.default_rng(7)
        idx = rng.choice(coo.n_cols, max(1, int(density * coo.n_cols)), replace=False)
        sv = SparseVector(coo.n_cols, idx, rng.uniform(0.5, 1.5, len(idx)))
        sr = spmv_semiring()
        ip = priced(traced_ip(coo, sv.to_dense(), sr, geom, HWMode.SC), geom)
        op = priced(traced_op(csc, sv, sr, geom, HWMode.PC), geom)
        analytic_verdict = ip[0] > op[0]
        trace_verdict = ip[1] > op[1]
        assert analytic_verdict == trace_verdict

    def test_cycles_within_factor_three_for_op(self, setting):
        coo, csc = setting
        geom = Geometry(2, 4)
        rng = np.random.default_rng(8)
        idx = rng.choice(coo.n_cols, 60, replace=False)
        sv = SparseVector(coo.n_cols, idx, rng.uniform(0.5, 1.5, 60))
        a, t = priced(traced_op(csc, sv, spmv_semiring(), geom, HWMode.PS), geom)
        assert 1 / 3 < a / t < 3
