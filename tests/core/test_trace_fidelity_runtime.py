"""End-to-end runtime and algorithms priced by trace replay.

The runtime prices every kernel with the analytic model.
:class:`ReplayedRuntime` substitutes the test oracle: each kernel runs
through ``traced_ip`` / ``traced_op`` and its record is priced by
replaying those traces (``tests/hardware/trace_oracle.py``).
"""

import numpy as np
import pytest

from repro.core import CoSparseRuntime
from repro.graphs import Graph, bfs, sssp
from repro.hardware import TransmuterSystem
from repro.workloads import uniform_random

from ..hardware.trace_oracle import TraceEngine, traced_ip, traced_op


class ReplayedSystem(TransmuterSystem):
    """Prices each profile by replaying the traces registered for it."""

    def __init__(self, geometry, params):
        super().__init__(geometry, params)
        self.engine = TraceEngine(self.geometry, params)
        #: id(profile) -> (profile, its traces); the profile pins its id.
        self.traces = {}

    def _evaluate(self, profiles):
        return [
            self.engine.evaluate(p, self.traces.pop(id(p))[1]) for p in profiles
        ]


class ReplayedRuntime(CoSparseRuntime):
    """A runtime whose kernels are traced and priced by replay."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.system = ReplayedSystem(self.geometry, self.params)

    def _run_kernel(
        self, algorithm, mode, frontier, semiring, current, profile_only=False
    ):
        kw = dict(self._kernel_kw(mode), current=current)
        if algorithm == "ip":
            vec, cost = self._convert("dense", frontier, semiring)
            result, traces = traced_ip(
                self.operand.coo, vec, semiring, self.geometry,
                profile_only=profile_only, vblock_width=self._vblock_width,
                **kw,
            )
        else:
            sv, cost = self._convert("sparse", frontier, semiring)
            result, traces = traced_op(
                self.operand.csc, sv, semiring, self.geometry, **kw
            )
        self.system.traces[id(result.profile)] = (result.profile, traces)
        return result, cost


@pytest.fixture(scope="module")
def tiny_graph():
    return Graph(uniform_random(300, nnz=2500, seed=19, remove_self_loops=True), name="tiny")


def replayed(graph):
    return ReplayedRuntime(graph.operand, "2x2")


class TestTraceFidelityEndToEnd:
    def test_bfs_identical_results_across_fidelities(self, tiny_graph):
        a = bfs(tiny_graph, 0, geometry="2x2")
        t = bfs(tiny_graph, 0, runtime=replayed(tiny_graph))
        assert np.allclose(
            np.nan_to_num(a.values, posinf=-1), np.nan_to_num(t.values, posinf=-1)
        )

    def test_trace_reports_are_trace_fidelity(self, tiny_graph):
        run = bfs(tiny_graph, 0, runtime=replayed(tiny_graph))
        assert all("replayed_accesses" in r.report.detail for r in run.log)

    def test_cycles_within_band(self, tiny_graph):
        a = sssp(tiny_graph, 0, geometry="2x2")
        t = sssp(tiny_graph, 0, runtime=replayed(tiny_graph))
        assert np.allclose(
            np.nan_to_num(a.values, posinf=-1), np.nan_to_num(t.values, posinf=-1)
        )
        ratio = a.total_cycles / t.total_cycles
        assert 1 / 3 < ratio < 3
