"""ShardedRuntime tests: the bit-identity contract, exchange accounting,
state discipline, and observability integration."""

import gc
import time

import numpy as np
import pytest

from repro.cluster import LinkParams, ShardedRuntime
from repro.core.runtime import CoSparseRuntime
from repro.errors import ConfigurationError
from repro.experiments.common import table3_graph
from repro.graphs import Graph, bfs, pagerank, sssp
from repro.graphs.pagerank import pagerank_semiring_for
from repro.obs import Tracer, override
import repro.parallel.pool as pool_mod
from repro.parallel.pool import arena
from repro.perf import counters
from repro.workloads import uniform_random
from tests.parallel.test_pool import forks  # noqa: F401 (a fixture)
from tests.parallel.test_shm import _psm_segments

NODE_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def twitter():
    return table3_graph("twitter", scale=64)


@pytest.fixture(scope="module")
def vsp():
    return table3_graph("vsp", scale=64)


def _run(algo, graph, runtime=None):
    if algo is pagerank:
        return pagerank(graph, runtime=runtime, max_iters=12)
    return algo(graph, 0, runtime=runtime)


class TestBitIdentity:
    @pytest.mark.parametrize("algo", [bfs, sssp, pagerank])
    @pytest.mark.parametrize("nodes", NODE_COUNTS)
    def test_serial_matches_single_node(self, twitter, algo, nodes):
        base = _run(algo, twitter)
        rt = ShardedRuntime(twitter.operand, nodes, jobs=1)
        run = _run(algo, twitter, runtime=rt)
        assert np.array_equal(base.values, run.values)
        assert run.converged == base.converged
        assert len(rt.log) == len(base.log)

    @pytest.mark.parametrize("algo", [bfs, pagerank])
    def test_second_graph(self, vsp, algo):
        base = _run(algo, vsp)
        run = _run(algo, vsp, runtime=ShardedRuntime(vsp.operand, 4, jobs=1))
        assert np.array_equal(base.values, run.values)

    def test_commvol_and_star_stay_identical(self, twitter):
        """Partition strategy and fabric change cycles, never results."""
        base = _run(sssp, twitter)
        rt = ShardedRuntime(
            twitter.operand, 4, topology="star", partition="commvol", jobs=1
        )
        run = _run(sssp, twitter, runtime=rt)
        assert np.array_equal(base.values, run.values)
        assert rt.log.total_network_cycles > 0

    def test_pool_matches_serial_run_for_run(self, twitter):
        """The pooled path must reproduce serial cycles exactly, across
        repeated runs on the same runtime (persistent hw mode)."""
        serial = ShardedRuntime(twitter.operand, 4, jobs=1)
        s1 = _run(sssp, twitter, runtime=serial)
        s2 = _run(sssp, twitter, runtime=serial)
        with ShardedRuntime(twitter.operand, 4, jobs=2) as pooled:
            p1 = _run(sssp, twitter, runtime=pooled)
            p2 = _run(sssp, twitter, runtime=pooled)
        assert np.array_equal(s1.values, p1.values)
        assert np.array_equal(s2.values, p2.values)
        assert p1.log.total_cycles == s1.log.total_cycles
        assert p2.log.total_cycles == s2.log.total_cycles
        assert p1.log.config_sequence() == s1.log.config_sequence()


class TestPooledTransport:
    """A pool session ships each shard matrix once and publishes nothing
    per superstep."""

    def test_shard_matrices_ship_once_per_session(self, twitter):
        base = _run(pagerank, twitter)
        rt = ShardedRuntime(twitter.operand, 4, jobs=2)
        with override(Tracer(label="transport")) as tracer:
            for _ in range(2):  # a re-entered session pins them again
                with rt:
                    run = _run(pagerank, twitter, runtime=rt)
                assert np.array_equal(base.values, run.values)
        matrix_bytes = sum(
            arr.nbytes
            for s in rt.shards
            for arr in (s.coo.rows, s.coo.cols, s.coo.vals,
                        s.csc.indptr, s.csc.indices, s.csc.vals)
        )
        # One task per worker, min(jobs, K) = 2, each carrying the dense
        # float64 rank frontier and the float64 out-degree recipe array
        # inline once, and nothing else.
        per_task = 2 * 8 * twitter.n_vertices
        sweeps = [
            r["attrs"] for r in tracer.span_records()
            if r["name"] == "parallel.sweep"
        ]
        steps = len(rt.log)
        assert len(sweeps) == 2 * steps and steps > 1
        assert [a["tasks"] for a in sweeps] == [2] * len(sweeps)
        assert [a["shm_bytes"] for a in sweeps] == (
            [matrix_bytes] + [0] * (steps - 1)
        ) * 2
        assert [a["inline_bytes"] for a in sweeps] == (
            [2 * per_task] * len(sweeps)
        )
        snap = tracer.metrics.snapshot()["counters"]
        assert snap["parallel.shm_bytes"] == 2 * matrix_bytes
        assert snap["parallel.inline_bytes"] == 2 * per_task * len(sweeps)

    @pytest.mark.parametrize("nodes", [3, 5])
    def test_uneven_groups_match_serial_run_for_run(self, twitter, nodes):
        """K shards in min(jobs, K) = 2 uneven groups: every value, cycle,
        config and per-shard record equals the serial run's."""
        serial = ShardedRuntime(twitter.operand, nodes, jobs=1)
        want = [_run(pagerank, twitter, runtime=serial) for _ in range(2)]
        counters.reset()
        with ShardedRuntime(twitter.operand, nodes, jobs=2) as pooled:
            got = [_run(pagerank, twitter, runtime=pooled) for _ in range(2)]
        steps = sum(len(run.log) for run in got)
        assert counters.pricing_tasks == 2 * steps
        assert counters.cluster_shard_tasks == nodes * steps
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)
            assert g.log.total_cycles == w.log.total_cycles
            assert g.log.config_sequence() == w.log.config_sequence()
            for a, b in zip(g.log.records, w.log.records):
                assert len(a.shard_records) == nodes
                assert a.shard_records == b.shard_records
                assert repr(a.shard_records) == repr(b.shard_records)

    def test_session_shared_memory_stays_bounded(self):
        # 140,000 float64 ranks make a dense frontier above 1 MiB, the
        # size a per-call pool would publish to shared memory.
        graph = Graph(uniform_random(140_000, nnz=280_000, seed=3))
        before = _psm_segments()
        after_step = []
        with ShardedRuntime(graph.operand, 4, jobs=2) as rt:
            step = rt.spmv

            def spmv(*args, **kw):
                result = step(*args, **kw)
                after_step.append(_psm_segments() - before)
                return result

            rt.spmv = spmv
            for _ in range(3):
                pagerank(graph, runtime=rt, max_iters=3)
        assert len(after_step) == 9
        assert after_step[0]
        assert after_step[-1] == after_step[0]
        assert _psm_segments() - before == set()

    def test_dropped_runtimes_unpin_their_segments(self):
        """A pooled runtime collected without close() unpins its shard
        arrays; the arena applies it at its next locked operation."""
        graph = Graph(uniform_random(3000, nnz=30_000, seed=1))
        process_arena = arena()
        pinned = set(process_arena._pinned)
        before = _psm_segments()
        for _ in range(3):
            rt = ShardedRuntime(graph.operand, 4, jobs=2)
            pagerank(graph, runtime=rt, max_iters=3)
            assert _psm_segments() - before
            del rt
            gc.collect()
        process_arena.names()
        assert set(process_arena._pinned) == pinned
        assert _psm_segments() - before == set()

    def test_close_then_collection_unpins_once(self):
        graph = Graph(uniform_random(3000, nnz=30_000, seed=1))
        process_arena = arena()
        rt = ShardedRuntime(graph.operand, 4, jobs=2)
        pagerank(graph, runtime=rt, max_iters=3)
        arrays = [a for shard in rt._shard_arrays for a in shard.values()]
        process_arena.pin(arrays)  # a second pin of every shard array
        rt.close()
        del rt
        gc.collect()
        process_arena.flush()
        assert [process_arena._pinned[id(a)][1] for a in arrays] == [1] * len(arrays)
        process_arena.unpin(arrays)
        assert not any(id(a) in process_arena._pinned for a in arrays)


class TestWorkerDeath:
    def test_killed_worker_falls_back_then_forks_once(self, twitter, forks):
        """A worker killed between supersteps: the last superstep runs on
        the serial fallback, and the next run forks one new pool."""
        serial = ShardedRuntime(twitter.operand, 4, jobs=1)
        want = [pagerank(twitter, runtime=serial, max_iters=3)
                for _ in range(2)]
        rt = ShardedRuntime(twitter.operand, 4, jobs=2)
        step, calls = rt.spmv, []

        def spmv(*args, **kw):
            if len(calls) == 2:  # before the run's last superstep
                executor = pool_mod.pool(2)
                next(iter(executor._processes.values())).kill()
                deadline = time.monotonic() + 30
                while not executor._broken and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert executor._broken
            calls.append(1)
            return step(*args, **kw)

        rt.spmv = spmv
        counters.reset()
        with rt:
            first = pagerank(twitter, runtime=rt, max_iters=3)
            assert counters.pricing_fallbacks == 1
            assert forks == [2]
            second = pagerank(twitter, runtime=rt, max_iters=3)
        assert forks == [2, 2]
        assert counters.pricing_fallbacks == 1
        for got, exp in zip((first, second), want):
            assert np.array_equal(got.values, exp.values)
            assert got.log.total_cycles == exp.log.total_cycles
            assert got.log.config_sequence() == exp.log.config_sequence()


class TestExchange:
    def test_seed_iteration_is_free(self, twitter):
        rt = ShardedRuntime(twitter.operand, 4, jobs=1)
        _run(bfs, twitter, runtime=rt)
        records = list(rt.log)
        assert records[0].network_cycles == 0.0
        assert records[0].exchange is None
        assert any(r.network_cycles > 0 for r in records[1:])

    def test_single_node_never_pays_network(self, twitter):
        rt = ShardedRuntime(twitter.operand, 1, jobs=1)
        _run(pagerank, twitter, runtime=rt)
        assert rt.log.total_network_cycles == 0.0
        assert rt.log.total_bytes == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_perf_counters(self, twitter, jobs):
        counters.reset()
        with ShardedRuntime(twitter.operand, 4, jobs=jobs) as rt:
            _run(pagerank, twitter, runtime=rt)
        assert counters.cluster_spmv_calls == len(rt.log)
        assert counters.cluster_shard_tasks == 4 * len(rt.log)
        assert counters.kernel_executions == 4 * len(rt.log)
        assert counters.cluster_exchange_bytes == rt.log.total_bytes
        assert rt.log.total_bytes > 0

    def test_custom_link_scales_cost(self, twitter):
        slow = ShardedRuntime(
            twitter.operand, 4, jobs=1,
            link=LinkParams(bandwidth_bytes_per_cycle=1.0,
                            latency_cycles=5000.0),
        )
        fast = ShardedRuntime(twitter.operand, 4, jobs=1)
        _run(bfs, twitter, runtime=slow)
        _run(bfs, twitter, runtime=fast)
        assert (
            slow.log.total_network_cycles > fast.log.total_network_cycles
        )


class TestStateDiscipline:
    def test_reset_log_keeps_hardware_mode(self, twitter):
        """Re-running on the same sharded runtime mirrors single-node:
        the log resets but the resident hw mode persists, so run2's
        cycles may legitimately differ from run1's."""
        single = CoSparseRuntime(twitter.operand, "8x16")
        b1 = _run(sssp, twitter, runtime=single)
        b2 = _run(sssp, twitter, runtime=single)
        rt = ShardedRuntime(twitter.operand, 2, jobs=1)
        r1 = _run(sssp, twitter, runtime=rt)
        r2 = _run(sssp, twitter, runtime=rt)
        assert np.array_equal(r1.values, b1.values)
        assert np.array_equal(r2.values, b2.values)
        # the single-node run1->run2 cycle delta comes from the persistent
        # mode; the sharded runtime must show the same qualitative effect
        assert (b1.log.total_cycles == b2.log.total_cycles) == (
            r1.log.total_cycles == r2.log.total_cycles
        )

    def test_log_properties(self, twitter):
        rt = ShardedRuntime(twitter.operand, 2, jobs=1)
        _run(bfs, twitter, runtime=rt)
        log = rt.log
        assert log.total_cycles == pytest.approx(
            log.total_compute_cycles + log.total_network_cycles
        )
        assert len(log.config_sequence()) == len(log)
        assert len(log.density_sequence()) == len(log)
        assert "iterations" in log.summary() or "iter" in log.summary()
        record = log.records[1]
        assert record.total_cycles == pytest.approx(
            record.compute_cycles + record.network_cycles
        )
        assert record.config_label


class TestValidation:
    def test_rejects_adaptive_policy(self, twitter):
        with pytest.raises(ConfigurationError):
            ShardedRuntime(twitter.operand, 2, policy="adaptive")

    def test_rejects_nonsquare(self):
        from repro.formats import COOMatrix

        rect = COOMatrix(4, 6, [0, 1], [2, 5], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            ShardedRuntime(rect, 2)

    def test_rejects_bad_node_count(self, twitter):
        with pytest.raises(ConfigurationError):
            ShardedRuntime(twitter.operand, 0)

    def test_rejects_batching(self, twitter):
        rt = ShardedRuntime(twitter.operand, 2, jobs=1)
        with pytest.raises(ConfigurationError):
            rt.spmv_batch()

    def test_describe(self, twitter):
        import json

        rt = ShardedRuntime(
            twitter.operand, 2, topology="star", partition="commvol", jobs=1
        )
        desc = rt.describe()
        assert desc["nodes"] == 2
        assert desc["topology"] == "star"
        assert desc["partition"] == "commvol"
        assert desc["pooled"] is False
        json.dumps(desc)  # stable and JSON-able


class TestObservability:
    def test_spans_and_events(self, twitter):
        with override(Tracer(label="cluster-test")) as tracer:
            rt = ShardedRuntime(twitter.operand, 2, jobs=1)
            _run(bfs, twitter, runtime=rt)
        span_names = {r["name"] for r in tracer.span_records()}
        assert "cluster.spmv" in span_names
        assert "cluster.exchange" in span_names
        exchanges = tracer.event_records("cluster_exchange")
        decisions = tracer.event_records("shard_decision")
        # one exchange event per post-seed iteration, K decisions per
        # iteration
        assert len(exchanges) == len(rt.log) - 1
        assert len(decisions) == 2 * len(rt.log)
        assert exchanges[0]["topology"] == "mesh"
        assert decisions[0]["shard"] == 0
        assert decisions[0]["algorithm"] in ("ip", "op")
