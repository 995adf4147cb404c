"""CoSparseRuntime tests: policies, conversions, logging."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core import CoSparseRuntime, SpMVOperand
from repro.formats import DenseVector, SparseVector
from repro.hardware import Geometry, HWMode
from repro.spmv import bfs_semiring, outer_product, spmv_semiring
from repro.workloads import random_frontier, uniform_random


@pytest.fixture
def operand(medium_coo):
    return SpMVOperand(medium_coo)


@pytest.fixture
def runtime(operand):
    return CoSparseRuntime(operand, "2x8")


class TestOperand:
    def test_holds_both_formats(self, operand, medium_coo):
        assert operand.coo is medium_coo
        assert np.allclose(operand.csc.to_dense(), medium_coo.to_dense())

    def test_partition_cached(self, operand):
        g = Geometry(2, 4)
        assert operand.ip_partition(g) is operand.ip_partition(g)
        assert operand.ip_partition(g) is not operand.ip_partition(Geometry(2, 8))

    def test_from_any(self, medium_coo):
        assert SpMVOperand.from_any(medium_coo).coo is medium_coo
        op = SpMVOperand(medium_coo)
        assert SpMVOperand.from_any(op) is op
        via_scipy = SpMVOperand.from_any(medium_coo.to_scipy())
        assert via_scipy.info.nnz == medium_coo.nnz


class TestPolicies:
    def test_rejects_unknown_policy(self, operand):
        with pytest.raises(ConfigurationError):
            CoSparseRuntime(operand, "2x8", policy="greedy")

    def test_tree_switches_by_density(self, runtime, medium_coo, rng):
        sr = spmv_semiring()
        sparse = random_frontier(medium_coo.n_cols, 0.002, seed=1)
        dense = random_frontier(medium_coo.n_cols, 0.9, seed=2)
        runtime.spmv(sparse, sr)
        assert runtime.last_record.algorithm == "op"
        runtime.spmv(dense, sr)
        assert runtime.last_record.algorithm == "ip"
        assert runtime.last_record.sw_switched

    def test_static_policy_never_switches(self, operand, medium_coo):
        rt = CoSparseRuntime(
            operand, "2x8", policy="static", static_config=("ip", HWMode.SC)
        )
        sr = spmv_semiring()
        for d in (0.001, 0.5):
            rt.spmv(random_frontier(medium_coo.n_cols, d, seed=3), sr)
        assert all(r.algorithm == "ip" for r in rt.log)
        assert rt.log.sw_switches == 0

    def test_oracle_picks_minimum(self, operand, medium_coo):
        rt = CoSparseRuntime(operand, "2x8", policy="oracle")
        sr = spmv_semiring()
        rt.spmv(random_frontier(medium_coo.n_cols, 0.01, seed=4), sr)
        rec = rt.last_record
        assert len(rec.alternatives) == 4
        chosen = rec.report.cycles
        best_alt = min(a.cycles for a in rec.alternatives.values())
        assert chosen == pytest.approx(best_alt, rel=0.05) or chosen <= best_alt * 1.05

    def test_oracle_and_tree_agree_functionally(self, operand, medium_coo):
        sr = spmv_semiring()
        f = random_frontier(medium_coo.n_cols, 0.05, seed=5)
        tree = CoSparseRuntime(operand, "2x8", policy="tree").spmv(f, sr)
        oracle = CoSparseRuntime(operand, "2x8", policy="oracle").spmv(f, sr)
        assert np.allclose(tree.values, oracle.values)


class TestConversions:
    def test_sparse_to_dense_for_ip_uses_absent(self, operand, medium_coo):
        rt = CoSparseRuntime(
            operand, "2x8", policy="static", static_config=("ip", HWMode.SC)
        )
        sr = bfs_semiring()  # absent = +inf
        f = SparseVector(medium_coo.n_cols, [3], [0.0])
        res = rt.spmv(f, sr)
        assert rt.last_record.conversion.words > 0
        # result rows not reachable from vertex 3 stay at identity
        assert np.isinf(res.values[~res.touched]).all()

    def test_dense_to_sparse_for_op(self, operand, medium_coo, rng):
        rt = CoSparseRuntime(
            operand, "2x8", policy="static", static_config=("op", HWMode.PC)
        )
        sr = spmv_semiring()
        dense = DenseVector((rng.random(medium_coo.n_cols) < 0.01) * 1.0)
        rt.spmv(dense, sr)
        assert rt.last_record.conversion.words > 0

    def test_no_conversion_when_format_matches(self, operand, medium_coo):
        rt = CoSparseRuntime(
            operand, "2x8", policy="static", static_config=("op", HWMode.PC)
        )
        f = random_frontier(medium_coo.n_cols, 0.01, seed=6)
        rt.spmv(f, spmv_semiring())
        assert rt.last_record.conversion.words == 0
        assert rt.last_record.conversion_cycles == 0.0

    def test_density_measure_2d(self):
        sr = type("S", (), {"absent": 0.0})  # duck-typed semiring
        arr = np.zeros((4, 3))
        arr[1, 2] = 1.0
        assert CoSparseRuntime.frontier_density(arr, sr) == pytest.approx(0.25)


class TestLogging:
    def test_log_grows(self, runtime, medium_coo):
        sr = spmv_semiring()
        for i, d in enumerate((0.001, 0.5, 0.001)):
            runtime.spmv(random_frontier(medium_coo.n_cols, d, seed=i), sr)
        assert len(runtime.log) == 3
        assert runtime.log.sw_switches == 2
        assert runtime.log.total_cycles > 0
        assert runtime.log.total_energy_j > 0

    def test_reset_log(self, runtime, medium_coo):
        runtime.spmv(random_frontier(medium_coo.n_cols, 0.1, seed=9), spmv_semiring())
        runtime.reset_log()
        assert len(runtime.log) == 0
        assert runtime.last_record is None

    def test_config_sequence_labels(self, runtime, medium_coo):
        runtime.spmv(
            random_frontier(medium_coo.n_cols, 0.001, seed=10), spmv_semiring()
        )
        assert runtime.log.config_sequence()[0].startswith("OP/")

    def test_summary_renders(self, runtime, medium_coo):
        runtime.spmv(
            random_frontier(medium_coo.n_cols, 0.01, seed=11), spmv_semiring()
        )
        assert "iterations" in runtime.log.summary()


class TestUnbalanced:
    @pytest.mark.parametrize("geometry", ["2x8", "4x8"])
    @pytest.mark.parametrize("path", ["spmv", "spmv_batch"])
    def test_op_honours_balanced_false(self, powerlaw_coo, geometry, path):
        """``balanced=False`` reaches OP's tile split, not only IP's."""
        operand = SpMVOperand(powerlaw_coo)
        rt = CoSparseRuntime(
            operand, geometry, policy="static",
            static_config=("op", HWMode.PC), balanced=False,
        )
        sr = spmv_semiring()
        f = random_frontier(powerlaw_coo.n_cols, 0.05, seed=8)
        res = rt.spmv(f, sr) if path == "spmv" else rt.spmv_batch([f], sr)[0]
        g = Geometry.parse(geometry)
        naive = outer_product(operand.csc, f, sr, g, HWMode.PC, balanced=False)
        balanced = outer_product(operand.csc, f, sr, g, HWMode.PC)
        assert naive.profile != balanced.profile
        assert res.profile == naive.profile
