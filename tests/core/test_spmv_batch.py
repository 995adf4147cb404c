"""Runtime-level batched SpMV: grouping, records, and bit-identity.

``spmv_batch`` must be indistinguishable — values, touched masks, and
per-column IterationRecords — from issuing K sequential ``spmv`` calls
in the batch's group-execution order.
"""

import numpy as np
import pytest

from repro.core import CoSparseRuntime, SpMVOperand
from repro.errors import ConfigurationError
from repro.formats import MultiVector, SparseVector
from repro.hardware import HWMode
from repro.spmv import (
    bfs_semiring,
    cf_semiring,
    pagerank_semiring,
    spmv_semiring,
    sssp_semiring,
)
from repro.workloads import random_frontier


@pytest.fixture
def operand(medium_coo):
    return SpMVOperand(medium_coo)


def _mixed_columns(n, rng):
    """Frontiers spanning the IP/OP decision boundary, mixed natives."""
    cols = [
        random_frontier(n, 0.001, seed=11),          # sparse -> OP
        rng.uniform(0.5, 1.5, n),                    # fully dense -> IP
        random_frontier(n, 0.003, seed=12),          # sparse -> OP
        np.where(rng.random(n) < 0.6, 1.0, 0.0),     # dense-ish -> IP
        SparseVector.empty(n),                       # empty
    ]
    return cols


def _run_sequential_in_group_order(operand, batch_rt, cols, semiring,
                                   currents=None, **rt_kw):
    """Replay the batch's group order through a fresh sequential runtime."""
    seq_rt = CoSparseRuntime(operand, "2x8", **rt_kw)
    order = [r.batch_column for r in batch_rt.log.records]
    results = {}
    for j in order:
        cur = None if currents is None else currents[j]
        results[j] = seq_rt.spmv(cols[j], semiring, current=cur)
    return seq_rt, order, results


def _assert_logs_identical(batch_rt, seq_rt):
    assert len(batch_rt.log) == len(seq_rt.log)
    for rb, rs in zip(batch_rt.log.records, seq_rt.log.records):
        assert rb.algorithm == rs.algorithm
        assert rb.hw_mode is rs.hw_mode
        assert rb.vector_density == rs.vector_density
        assert rb.report.cycles == rs.report.cycles
        assert rb.report.reconfig_cycles == rs.report.reconfig_cycles
        assert rb.conversion == rs.conversion
        assert rb.conversion_cycles == rs.conversion_cycles
        assert rb.sw_switched == rs.sw_switched
        assert rb.hw_switched == rs.hw_switched


class TestBitIdentity:
    @pytest.mark.parametrize("policy", ["tree", "oracle", "static"])
    def test_matches_sequential_group_order(
        self, operand, medium_coo, rng, policy
    ):
        sr = spmv_semiring()
        cols = _mixed_columns(medium_coo.n_cols, rng)
        batch_rt = CoSparseRuntime(operand, "2x8", policy=policy)
        results = batch_rt.spmv_batch(cols, sr)
        seq_rt, order, seq_results = _run_sequential_in_group_order(
            operand, batch_rt, cols, sr, policy=policy
        )
        assert sorted(order) == list(range(len(cols)))
        for j in order:
            assert np.array_equal(results[j].values, seq_results[j].values)
            assert np.array_equal(results[j].touched, seq_results[j].touched)
        _assert_logs_identical(batch_rt, seq_rt)

    def test_min_semiring_and_currents(self, operand, medium_coo, rng):
        sr = sssp_semiring()
        n = medium_coo.n_cols
        cols = [random_frontier(n, 0.002, seed=21), random_frontier(n, 0.4, seed=22)]
        currents = [rng.uniform(1.0, 8.0, n), rng.uniform(1.0, 8.0, n)]
        batch_rt = CoSparseRuntime(operand, "2x8")
        mv = MultiVector(cols, absent=np.inf)
        results = batch_rt.spmv_batch(mv, sr, currents=currents)
        seq_rt, order, seq_results = _run_sequential_in_group_order(
            operand, batch_rt, cols, sr, currents=currents
        )
        for j in order:
            assert np.array_equal(results[j].values, seq_results[j].values)
        _assert_logs_identical(batch_rt, seq_rt)

    def test_additive_vector_op_semiring(self, operand, medium_coo, rng):
        degrees = np.maximum(
            np.bincount(medium_coo.rows, minlength=medium_coo.n_rows), 1
        )
        sr = pagerank_semiring(degrees)
        n = medium_coo.n_cols
        cols = [rng.random(n), rng.random(n)]
        batch_rt = CoSparseRuntime(operand, "2x8")
        results = batch_rt.spmv_batch(cols, sr)
        seq_rt, order, seq_results = _run_sequential_in_group_order(
            operand, batch_rt, cols, sr
        )
        for j in order:
            assert np.array_equal(results[j].values, seq_results[j].values)
        _assert_logs_identical(batch_rt, seq_rt)

    def test_all_dense_batch_single_group(self, operand, medium_coo, rng):
        sr = spmv_semiring()
        cols = [rng.uniform(0.5, 1.5, medium_coo.n_cols) for _ in range(3)]
        rt = CoSparseRuntime(operand, "2x8")
        rt.spmv_batch(cols, sr)
        assert len({(r.algorithm, r.hw_mode) for r in rt.log}) == 1
        # Same-config followers ride the group: after the initial mode
        # configuration, no further switches are charged.
        followers = [r.report.reconfig_cycles for r in rt.log.records[1:]]
        assert followers == [0.0, 0.0]

    def test_switch_charged_once_per_group(self, operand, medium_coo, rng):
        sr = spmv_semiring()
        n = medium_coo.n_cols
        cols = [
            random_frontier(n, 0.001, seed=31),
            rng.uniform(0.5, 1.5, n),
            random_frontier(n, 0.001, seed=32),
            rng.uniform(0.5, 1.5, n),
        ]
        rt = CoSparseRuntime(operand, "2x8")
        rt.spmv_batch(cols, sr)
        recs = rt.log.records
        modes = [r.hw_mode for r in recs]
        assert len(set(modes)) == 2  # two groups actually formed
        # Grouping reorders execution so each config runs contiguously:
        # only the first column of each group pays the mode switch (the
        # leading one covers the initial configuration).
        switches = [r.report.reconfig_cycles > 0 for r in recs]
        assert switches == [True, False, True, False]


class TestBatchBookkeeping:
    def test_batch_provenance_fields(self, operand, medium_coo, rng):
        sr = spmv_semiring()
        rt = CoSparseRuntime(operand, "2x8")
        rt.spmv(random_frontier(medium_coo.n_cols, 0.01, seed=41), sr)
        assert rt.last_record.batch_id is None
        assert rt.last_record.batch_column is None
        rt.spmv_batch([rng.random(medium_coo.n_cols) for _ in range(2)], sr)
        batch_recs = rt.log.records[1:]
        assert [r.batch_id for r in batch_recs] == [0, 0]
        assert sorted(r.batch_column for r in batch_recs) == [0, 1]
        rt.spmv_batch([rng.random(medium_coo.n_cols)], sr)
        assert rt.last_record.batch_id == 1
        rt.reset_log()
        assert rt._batch_id == 0

    def test_iteration_numbers_contiguous(self, operand, medium_coo, rng):
        sr = spmv_semiring()
        rt = CoSparseRuntime(operand, "2x8")
        rt.spmv_batch([rng.random(medium_coo.n_cols) for _ in range(3)], sr)
        assert [r.iteration for r in rt.log.records] == [0, 1, 2]

    def test_rejects_trace_vector_semirings_and_bad_absent(
        self, operand, medium_coo, rng
    ):
        rt = CoSparseRuntime(operand, "2x8")
        with pytest.raises(ConfigurationError):
            rt.spmv_batch([rng.random(medium_coo.n_cols)], cf_semiring())
        mv = MultiVector([rng.random(medium_coo.n_cols)], absent=0.0)
        with pytest.raises(ConfigurationError):
            rt.spmv_batch(mv, bfs_semiring())
        with pytest.raises(ConfigurationError):
            rt.spmv_batch(
                [rng.random(medium_coo.n_cols)],
                spmv_semiring(),
                currents=[None, None],
            )

    def test_currents_as_2d_array(self, operand, medium_coo, rng):
        sr = sssp_semiring()
        n = medium_coo.n_cols
        cols = [random_frontier(n, 0.05, seed=51), random_frontier(n, 0.05, seed=52)]
        cur = rng.uniform(1.0, 5.0, (n, 2))
        mv = MultiVector(cols, absent=np.inf)
        rt = CoSparseRuntime(operand, "2x8")
        results = rt.spmv_batch(mv, sr, currents=cur)
        for q in range(2):
            seq = CoSparseRuntime(operand, "2x8").spmv(
                cols[q], sr, current=cur[:, q]
            )
            assert np.array_equal(results[q].values, seq.values)


class _StubReport:
    def __init__(self, cycles, energy_j):
        self.cycles = cycles
        self.energy_j = energy_j


class TestEnergyObjectiveScoring:
    """The objective="energy" fallback is all-or-nothing per comparison."""

    def test_all_energy_ranks_by_joules(self, operand):
        rt = CoSparseRuntime(operand, "2x8", objective="energy")
        reports = [_StubReport(100.0, 5.0), _StubReport(200.0, 1.0)]
        assert rt._scores(reports) == [5.0, 1.0]

    def test_no_energy_falls_back_to_cycles_uniformly(self, operand):
        rt = CoSparseRuntime(operand, "2x8", objective="energy")
        reports = [_StubReport(100.0, None), _StubReport(200.0, None)]
        assert rt._scores(reports) == [100.0, 200.0]

    def test_mixed_energy_is_a_configuration_error(self, operand):
        rt = CoSparseRuntime(operand, "2x8", objective="energy")
        reports = [_StubReport(100.0, 5.0), _StubReport(200.0, None)]
        with pytest.raises(ConfigurationError):
            rt._scores(reports)

    def test_time_objective_ignores_energy(self, operand):
        rt = CoSparseRuntime(operand, "2x8", objective="time")
        reports = [_StubReport(100.0, 5.0), _StubReport(200.0, None)]
        assert rt._scores(reports) == [100.0, 200.0]

    def test_oracle_energy_objective_end_to_end(self, operand, medium_coo):
        rt = CoSparseRuntime(operand, "2x8", policy="oracle", objective="energy")
        rt.spmv(random_frontier(medium_coo.n_cols, 0.01, seed=61), spmv_semiring())
        rec = rt.last_record
        chosen = rec.report.energy_j
        assert chosen is not None
        assert chosen <= min(a.energy_j for a in rec.alternatives.values()) * 1.05
