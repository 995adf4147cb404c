"""Profile-only pricing: decoupled execution, reuse, and the counting test.

The oracle policy prices all four (algorithm, mode) candidates; pricing
needs only the :class:`KernelProfile`, so the probes run with
``profile_only=True`` and exactly one functional kernel executes per
``spmv()`` invocation (this pins the fix for the historical
double-execution bug, where the winner was re-run after ``_compare``).
"""

import numpy as np
import pytest

from repro.core import CoSparseRuntime
from repro.errors import ReproError
from repro.formats import CSCMatrix
from repro.graphs import Graph, bfs
from repro.hardware import Geometry, HWMode, TransmuterSystem
from repro.perf import counters as perf_counters
from repro.spmv import inner_product, outer_product, spmv_semiring
from repro.workloads import random_frontier, uniform_random

GEOM = Geometry.parse("2x8")


@pytest.fixture(scope="module")
def matrix():
    return uniform_random(2000, nnz=20_000, seed=42)


@pytest.fixture(autouse=True)
def fresh_counters():
    perf_counters.reset()
    yield
    perf_counters.reset()


class TestKernelProfileOnly:
    def test_ip_profile_matches_executed(self, matrix):
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.3, seed=1).to_dense().data
        system = TransmuterSystem(GEOM)
        full = inner_product(matrix, f, sr, GEOM, HWMode.SC)
        probe = inner_product(matrix, f, sr, GEOM, HWMode.SC, profile_only=True)
        assert full.executed and not probe.executed
        r_full = system.evaluate_without_switching(full.profile)
        r_probe = system.evaluate_without_switching(probe.profile)
        assert r_probe.cycles == pytest.approx(r_full.cycles)

    def test_op_profile_matches_executed(self, matrix):
        sr = spmv_semiring()
        csc = CSCMatrix.from_coo(matrix)
        f = random_frontier(matrix.n_cols, 0.01, seed=2)
        system = TransmuterSystem(GEOM)
        full = outer_product(csc, f, sr, GEOM, HWMode.PC)
        probe = outer_product(csc, f, sr, GEOM, HWMode.PC, profile_only=True)
        assert full.executed and not probe.executed
        r_full = system.evaluate_without_switching(full.profile)
        r_probe = system.evaluate_without_switching(probe.profile)
        assert r_probe.cycles == pytest.approx(r_full.cycles)

    def test_profile_only_result_guards_functional_accessors(self, matrix):
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.3, seed=4).to_dense().data
        probe = inner_product(matrix, f, sr, GEOM, HWMode.SC, profile_only=True)
        assert probe.values is None and probe.touched is None
        with pytest.raises(ReproError):
            probe.dense_output()
        with pytest.raises(ReproError):
            _ = probe.touched_count


class TestOracleCounting:
    def test_oracle_spmv_executes_exactly_one_kernel(self, matrix):
        rt = CoSparseRuntime(matrix, GEOM, policy="oracle")
        sr = spmv_semiring()
        for i, d in enumerate((0.002, 0.05, 0.5)):
            f = random_frontier(matrix.n_cols, d, seed=10 + i)
            perf_counters.reset()
            result = rt.spmv(f, sr)
            assert result.executed
            assert perf_counters.kernel_executions == 1
            assert perf_counters.kernel_profile_only == 4  # all candidates
            assert len(rt.last_record.alternatives) == 4

    def test_tree_policy_executes_exactly_one_kernel(self, matrix):
        rt = CoSparseRuntime(matrix, GEOM, policy="tree")
        f = random_frontier(matrix.n_cols, 0.01, seed=20)
        rt.spmv(f, spmv_semiring())
        assert perf_counters.kernel_executions == 1
        assert perf_counters.kernel_profile_only == 0

    def test_oracle_matches_tree_functionally(self, matrix):
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.01, seed=21)
        a = CoSparseRuntime(matrix, GEOM, policy="oracle").spmv(f, sr)
        b = CoSparseRuntime(matrix, GEOM, policy="tree").spmv(f, sr)
        assert np.allclose(a.values, b.values)

    def test_bfs_execution_count_equals_iterations(self):
        graph = Graph(uniform_random(400, nnz=3000, seed=5, remove_self_loops=True))
        rt = CoSparseRuntime(graph.operand, GEOM, policy="oracle")
        run = bfs(graph, 0, runtime=rt)
        assert perf_counters.kernel_executions == len(run.log)


class TestConversionMemoization:
    def test_oracle_converts_each_representation_once(self, matrix):
        """Four candidates, two representations, one conversion each."""
        rt = CoSparseRuntime(matrix, GEOM, policy="oracle")
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.05, seed=30)  # sparse input
        calls = {"dense": 0, "sparse": 0}
        orig_dense, orig_sparse = rt._to_dense, rt._to_sparse

        def count_dense(frontier, semiring):
            calls["dense"] += 1
            return orig_dense(frontier, semiring)

        def count_sparse(frontier, semiring):
            calls["sparse"] += 1
            return orig_sparse(frontier, semiring)

        rt._to_dense, rt._to_sparse = count_dense, count_sparse
        rt.spmv(f, sr)
        assert calls == {"dense": 1, "sparse": 1}

    def test_conversion_cost_logged_unchanged(self, matrix):
        """Memoization must not change the logged conversion cost."""
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.05, seed=31)
        oracle = CoSparseRuntime(matrix, GEOM, policy="oracle")
        static = CoSparseRuntime(matrix, GEOM, policy="static")
        oracle.spmv(f, sr)
        static.spmv(f, sr)
        if oracle.last_record.algorithm == "ip":
            # static config is also IP/SC: identical conversion work
            assert (
                oracle.last_record.conversion.words
                == static.last_record.conversion.words
            )
        assert oracle.last_record.conversion_cycles >= 0.0
