"""One worker pool and one shared-memory arena per process.

A process forks its workers once per worker count, however many
``map()`` calls and schedulers use them; a broken pool is dropped and
the next call forks once; the workload memo's arrays are published
once; and nothing a call or an eviction drops stays linked in
``/dev/shm`` or attached in a worker.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
import repro.parallel.pool as pool_mod
from repro.cluster import ShardedRuntime
from repro.cluster import work as cluster_work
from repro.experiments import run_fig4
from repro.experiments.common import fig4_matrix, table3_graph
from repro.graphs import pagerank
from repro.obs import Tracer, override
from repro.parallel import PricingTask, SweepScheduler
from repro.parallel import shm
from repro.perf import counters
from repro.workloads import cached_csc
from repro.workloads import io as wio
from repro.workloads.io import prepared_digest

from .test_scheduler import _poison_tasks as _poison
from .test_shm import _psm_segments

_GRID = dict(scale=64, geometries=("4x8",), matrices=(0,))


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """A process with no pool yet; counts the pools it creates."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_PRICING_CACHE", "0")
    pool_mod.shutdown()
    made = []
    real = pool_mod._new_pool

    def counting(workers):
        made.append(workers)
        return real(workers)

    monkeypatch.setattr(pool_mod, "_new_pool", counting)
    yield made
    pool_mod.shutdown()


def worker_state(payload, arrays):
    """Probe task: the worker's pid and what it holds attached.  The
    pause lets every worker of the pool take one probe."""
    time.sleep(payload.get("pause_s", 0.0))
    return {
        "pid": os.getpid(),
        "attached": sorted(shm._attached),
        "transient": len(shm._transient),
        "retired": len(shm._retired),
        "runs": len(cluster_work._shard_runtimes),
    }


def _probe(jobs, n=None, pause_s=0.3, arrays=None):
    tasks = [
        PricingTask(
            f"{__name__}:worker_state",
            {"pause_s": pause_s, "i": i},
            dict(arrays or {}),
            cacheable=False,
        )
        for i in range(n or jobs)
    ]
    return SweepScheduler(jobs=jobs, use_cache=False).map(tasks)


class TestOnePoolPerProcess:
    def test_one_fork_per_worker_count(self, forks):
        pids = set()
        for _ in range(4):  # a new scheduler every call
            pids |= {r["pid"] for r in _probe(2, pause_s=0.0)}
            run_fig4(jobs=2, **_GRID)
        assert forks == [2]
        assert len(pids) <= 2 and os.getpid() not in pids
        _probe(3, pause_s=0.0)
        _probe(3, pause_s=0.0)
        assert forks == [2, 3]
        _probe(2, pause_s=0.0)
        assert forks == [2, 3, 2]

    def test_poisoned_map_falls_back_then_forks_once(self, forks):
        _probe(2, pause_s=0.0)
        counters.reset()
        sched = SweepScheduler(jobs=2, use_cache=False, label="poisoned")
        results = sched.map(_poison("exit"))
        assert [r["ok"] for r in results] == [1, 1, 1]
        assert counters.pricing_fallbacks == 1
        assert forks == [2]
        for _ in range(3):
            _probe(2, pause_s=0.0)
        assert forks == [2, 2]

    def test_submit_on_a_broken_pool_falls_back(self, forks):
        _probe(2, pause_s=0.0)
        executor = pool_mod.pool(2)
        for proc in list(executor._processes.values()):
            proc.kill()
        deadline = time.monotonic() + 30
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.02)
        assert executor._broken
        counters.reset()
        with override(Tracer(label="t")) as tracer:
            sched = SweepScheduler(jobs=2, use_cache=False, label="broken")
            results = sched.map(_poison("ok"))
        assert [r["ok"] for r in results] == [1, 1, 1]
        assert sched.last_stats["fallback_tasks"] == 3
        assert counters.pricing_fallbacks == 1
        (warning,) = tracer.event_records("warning")
        assert "serially" in warning["message"]
        assert forks == [2]
        _probe(2, pause_s=0.0)
        _probe(2, pause_s=0.0)
        assert forks == [2, 2]

    def test_threads_share_one_pool_and_arena(self, forks):
        # Sweeps on four threads at once, over two matrices: one fork,
        # each matrix published once, every row equal to the serial one.
        import threading

        grids = [dict(_GRID, matrices=(m,)) for m in (0, 1)]
        serial = [run_fig4(jobs=1, **grid).rows for grid in grids]
        results, errors = [], []

        def sweep(k):
            try:
                for _ in range(3):
                    results.append((k % 2, run_fig4(jobs=2, **grids[k % 2]).rows))
            except BaseException as exc:  # reported below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 12
        assert all(rows == serial[m] for m, rows in results)
        assert forks == [2]
        assert len(pool_mod.arena().names()) == 12  # 6 arrays per matrix

    def test_workers_forked_while_a_thread_holds_the_tracker_lock(self, forks):
        # Another thread inside the resource tracker when the workers
        # fork must not leave them a held lock: every attach takes it.
        import threading
        from multiprocessing import resource_tracker

        executor = pool_mod.pool(2)  # starts the tracker
        held, done = threading.Event(), threading.Event()

        def hold():
            with resource_tracker._resource_tracker._lock:
                held.set()
                done.wait(60)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(60)
            executor.submit(int).result(timeout=60)  # the workers fork here
        finally:
            done.set()
            holder.join(timeout=60)
        big = np.arange(200_000, dtype=np.float64)  # a per-call segment
        tasks = [
            PricingTask(
                f"{__name__}:worker_state", {"i": i}, {"big": big},
                cacheable=False,
            )
            for i in range(4)
        ]
        sched = SweepScheduler(jobs=2, use_cache=False, timeout_s=20)
        sched.map(tasks)
        assert sched.last_stats["fallback_tasks"] == 0
        assert forks == [2]

    def test_task_error_keeps_the_pool(self, forks):
        sched = SweepScheduler(jobs=2, use_cache=False)
        with pytest.raises(RuntimeError, match="poisoned"):
            sched.map(_poison("raise"))
        _probe(2, pause_s=0.0)
        assert forks == [2]


def read_env(payload, arrays):
    """Probe task: two ``REPRO_*`` variables as the worker sees them."""
    return {
        "cache": os.environ.get("REPRO_CACHE_DIR"),
        "pricing": os.environ.get("REPRO_PRICING_CACHE"),
    }


def test_workers_see_the_coordinators_environment(forks, monkeypatch, tmp_path):
    # Workers forked before the change must read what a worker forked
    # for this call would: cache directory, switches, removals.
    _probe(2, pause_s=0.0)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "moved"))
    monkeypatch.delenv("REPRO_PRICING_CACHE")
    tasks = [
        PricingTask(f"{__name__}:read_env", {"i": i}, cacheable=False)
        for i in range(4)
    ]
    seen = SweepScheduler(jobs=2, use_cache=False).map(tasks)
    assert seen == [{"cache": str(tmp_path / "moved"), "pricing": None}] * 4
    assert forks == [2]


def _sweep_spans(tracer, label):
    return [
        r["attrs"] for r in tracer.span_records()
        if r["name"] == "parallel.sweep" and r["attrs"]["label"] == label
    ]


class TestOneArenaPerProcess:
    def test_memo_arrays_published_once(self, forks):
        coo = fig4_matrix(0, scale=64)
        csc = cached_csc(coo)
        owned = [coo.rows, coo.cols, coo.vals, csc.indptr, csc.indices, csc.vals]
        graph = table3_graph("twitter", scale=64)
        with override(Tracer(label="t")) as tracer:
            first = run_fig4(jobs=2, **_GRID)
            names = set(pool_mod.arena().names())
            with ShardedRuntime(graph.operand, 4, jobs=2) as rt:
                pagerank(graph, runtime=rt, max_iters=3)
            again = run_fig4(jobs=2, **_GRID)
        assert again.rows == first.rows
        fig4_maps = _sweep_spans(tracer, "fig4")
        assert fig4_maps[0]["shm_bytes"] == sum(a.nbytes for a in owned)
        assert fig4_maps[1]["shm_bytes"] == 0
        assert fig4_maps[1]["inline_bytes"] == 0
        pid = f"{os.getpid():x}"
        assert names == {
            f"psm_{pid}_{prepared_digest(a)[:16]}" for a in owned
        }
        # The session's pins went with it; the memo's arrays stayed.
        assert set(pool_mod.arena().names()) == names
        assert names <= _psm_segments()

    def test_evicted_and_per_call_segments_are_let_go(self, forks):
        run_fig4(jobs=2, **_GRID)
        evicted = set(pool_mod.arena().names())
        assert evicted
        wio._prepared.clear()  # the memo lets go of the matrix
        big = np.arange(200_000, dtype=np.float64)  # a per-call segment
        before = _psm_segments()
        for _ in range(3):
            for state in _probe(2, n=4, arrays={"big": big}):
                assert state["transient"] == 1  # this task's own only
        run_fig4(jobs=2, **dict(_GRID, matrices=(1,)))  # publishes anew
        held = set(pool_mod.arena().names())
        assert held and not held & evicted
        assert not evicted & _psm_segments()
        assert _psm_segments() - before == held
        states = _probe(2, n=4)
        assert len({s["pid"] for s in states}) == 2
        for state in states:
            assert set(state["attached"]) <= held
            assert state["transient"] == 0
            assert state["retired"] == 0

    def test_session_pins_go_with_the_session(self, forks):
        graph = table3_graph("twitter", scale=64)
        before = _psm_segments()
        for _ in range(6):  # more sharded runs than workers keep
            with ShardedRuntime(graph.operand, 4, jobs=2) as rt:
                pagerank(graph, runtime=rt, max_iters=2)
            assert _psm_segments() - before == set()
        states = _probe(2, n=4)
        for state in states:
            assert state["attached"] == []
            assert state["runs"] <= cluster_work._SHARD_RUNS_KEPT


def test_shard_runtime_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(cluster_work, "_shard_runtimes", type(
        cluster_work._shard_runtimes
    )())
    graph = table3_graph("twitter", scale=64)
    rts = [ShardedRuntime(graph.operand, 2, jobs=1) for _ in range(6)]
    for i, rt in enumerate(rts):
        for shard in rt.shards:
            arrays = {
                "coo_rows": shard.coo.rows, "coo_cols": shard.coo.cols,
                "coo_vals": shard.coo.vals, "csc_indptr": shard.csc.indptr,
                "csc_indices": shard.csc.indices, "csc_vals": shard.csc.vals,
            }
            payload = {
                "token": f"run-{i}", "shard": shard.index,
                "shape": [shard.n_rows, rt.n], "geometry": "4x8",
                "policy": "tree", "static_algorithm": "ip",
                "static_mode": "SC", "balanced": True, "objective": "time",
            }
            cluster_work._runtime_for(payload, arrays)
    assert list(cluster_work._shard_runtimes) == [
        f"run-{i}" for i in range(6 - cluster_work._SHARD_RUNS_KEPT, 6)
    ]
    assert all(len(run) == 2 for run in cluster_work._shard_runtimes.values())


_POOLED_PASS_AND_SESSION = """
from repro.cluster import ShardedRuntime
from repro.experiments import fig4
from repro.experiments.common import table3_graph
from repro.graphs import pagerank

fig4.run_fig4(
    scale=16, geometries=fig4.QUICK_GEOMETRIES, matrices=(0, 1), jobs=2
)
graph = table3_graph("pokec", scale=64)
with ShardedRuntime(graph.operand, 4, jobs=2) as rt:
    pagerank(graph, runtime=rt, max_iters=3)
rt = ShardedRuntime(graph.operand, 4, jobs=2)  # never closed
pagerank(graph, runtime=rt, max_iters=2)
"""


def test_child_interpreter_exits_clean(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env.update(
        PYTHONPATH=os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p),
        REPRO_CACHE_DIR=str(tmp_path),
        REPRO_PRICING_CACHE="0",
    )
    before = _psm_segments()
    proc = subprocess.run(
        [sys.executable, "-c", _POOLED_PASS_AND_SESSION],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr
    assert "KeyError" not in proc.stderr
    assert _psm_segments() - before == set()
