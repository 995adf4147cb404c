"""SweepScheduler: determinism, caching, fallback, job resolution.

The pool tests run real ``ProcessPoolExecutor`` workers; grids are kept
tiny (one matrix, one geometry) so they stay inside the fast subset
even on a single-core machine.
"""

import os
import time
from collections import Counter

import pytest

from repro.experiments import run_fig4
from repro.experiments.common import fig4_matrix, price_task
from repro.hardware import HWMode
from repro.obs import Tracer, override
from repro.parallel import PricingCache, PricingTask, SweepScheduler, resolve_jobs
from repro.parallel.scheduler import _DigestMemo
from repro.parallel.tasks import task_key
from repro.perf import counters
from repro.workloads import cached_csc, uniform_random
from repro.workloads.io import prepared_digest

#: The small Fig. 4 slice every scheduler-integration test prices.
_GRID = dict(scale=64, geometries=("4x8",), matrices=(0,))


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """Workload cache in a temp dir, pricing cache off."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_PRICING_CACHE", "0")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


@pytest.fixture
def warm_cache(tmp_path, monkeypatch):
    """Workload + pricing caches both live in a temp dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_PRICING_CACHE", "1")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_beats_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs() == 2

    def test_floor_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_nonpositive_env_raises(self, monkeypatch):
        # REPRO_JOBS=0 is user misconfiguration, not a request for 1.
        for value in ("0", "-3"):
            monkeypatch.setenv("REPRO_JOBS", value)
            with pytest.raises(ValueError, match="positive"):
                resolve_jobs()


def _traced_fig4(jobs):
    """One ``_GRID`` run under its own tracer from zeroed counters: the
    rows, the span-name multiset and the counter totals."""
    counters.reset()
    with override(Tracer(label="t")) as tracer:
        result = run_fig4(jobs=jobs, **_GRID)
    names = Counter(s["name"] for s in tracer.span_records())
    return result.rows, names, counters.snapshot()


class TestBitIdentity:
    def test_pool_matches_serial(self, cold_cache):
        serial, serial_spans, serial_counters = _traced_fig4(1)
        pooled, pooled_spans, pooled_counters = _traced_fig4(4)
        assert pooled == serial  # bit-identical, not approx
        # Worker spans and counter increments come back to the
        # coordinator: telemetry does not depend on the worker count.
        assert pooled_spans == serial_spans
        assert pooled_counters == serial_counters

    def test_env_jobs_matches_explicit(self, cold_cache, monkeypatch):
        serial = run_fig4(jobs=1, **_GRID)
        monkeypatch.setenv("REPRO_JOBS", "2")
        pooled = run_fig4(**_GRID)
        assert pooled.rows == serial.rows


class TestPricingCacheRoundTrip:
    def test_second_run_executes_no_kernels(self, warm_cache):
        first = run_fig4(jobs=1, **_GRID)
        counters.reset()
        second = run_fig4(jobs=1, **_GRID)
        assert second.rows == first.rows
        assert counters.kernel_executions == 0
        assert counters.kernel_profile_only == 0
        assert counters.pricing_tasks > 0
        assert counters.pricing_cache_hits == counters.pricing_tasks
        assert counters.pricing_cache_misses == 0

    def test_cache_survives_worker_count_change(self, warm_cache):
        first = run_fig4(jobs=2, **_GRID)
        counters.reset()
        second = run_fig4(jobs=1, **_GRID)
        assert second.rows == first.rows
        assert counters.pricing_cache_hits == counters.pricing_tasks


def _poison_tasks(mode, n=3):
    return [
        PricingTask(
            "repro.parallel.work:poison",
            {"mode": mode, "i": i},
            cacheable=False,
        )
        for i in range(n)
    ]


def report_cpus(payload, arrays):
    """Task run in pool workers: the worker's pid and allowed CPUs.  The
    pause keeps a worker busy long enough for every task to get its own."""
    time.sleep(payload["pause_s"])
    return {"pid": os.getpid(), "cpus": sorted(os.sched_getaffinity(0))}


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API"
)
class TestWorkerPlacement:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_each_worker_gets_its_own_cpu(self, jobs):
        # Forked workers start on the coordinator's CPU.  Where the
        # kernel does not balance load across CPUs, two of them could
        # share one for the pool's whole life while another idles.
        tasks = [
            PricingTask(
                f"{__name__}:report_cpus",
                {"pause_s": 0.5, "i": i},
                cacheable=False,
            )
            for i in range(jobs)
        ]
        results = SweepScheduler(jobs=jobs, use_cache=False).map(tasks)
        assert len({r["pid"] for r in results}) == jobs
        allowed = sorted(os.sched_getaffinity(0))
        assert sorted(r["cpus"] for r in results) == sorted(
            [allowed[i % len(allowed)]] for i in range(jobs)
        )


class TestFallback:
    def test_dead_worker_falls_back_to_serial(self):
        counters.reset()
        sched = SweepScheduler(jobs=2, use_cache=False, label="poisoned")
        results = sched.map(_poison_tasks("exit"))
        # The serial rerun completes every task despite the dead pool.
        assert [r["ok"] for r in results] == [1, 1, 1]
        assert counters.pricing_fallbacks == 1
        assert sched.last_stats["fallback_tasks"] > 0

    def test_fallback_emits_warning_event(self):
        with override(Tracer(label="t")) as tracer:
            SweepScheduler(jobs=2, use_cache=False).map(_poison_tasks("exit"))
        warnings = tracer.event_records("warning")
        assert warnings and "serially" in warnings[0]["message"]

    def test_timeout_falls_back(self):
        counters.reset()
        sched = SweepScheduler(
            jobs=2, timeout_s=0.5, use_cache=False, label="hung"
        )
        results = sched.map(_poison_tasks("hang", n=2))
        assert all(r["ok"] == 1 for r in results)
        assert counters.pricing_fallbacks == 1

    def test_straggler_keeps_completed_results(self):
        # One hung worker must not discard (and serially re-run) the
        # tasks that other workers already finished: only the straggler
        # itself lands in the fallback count.
        counters.reset()
        tasks = [
            PricingTask(
                "repro.parallel.work:poison",
                {"mode": "hang", "i": 0},
                cacheable=False,
            )
        ] + _poison_tasks("ok", n=3)
        sched = SweepScheduler(
            jobs=2, timeout_s=2.0, use_cache=False, label="straggler"
        )
        results = sched.map(tasks)
        assert [r["ok"] for r in results] == [1, 1, 1, 1]
        assert results[0]["mode"] == "hang"  # serial fallback ran it
        assert sched.last_stats["fallback_tasks"] == 1
        assert counters.pricing_fallbacks == 1

    def test_task_exception_propagates(self):
        sched = SweepScheduler(jobs=1, use_cache=False)
        with pytest.raises(RuntimeError, match="poisoned"):
            sched.map(_poison_tasks("raise"))

    def test_task_exception_propagates_from_pool(self):
        sched = SweepScheduler(jobs=2, use_cache=False)
        with pytest.raises(RuntimeError, match="poisoned"):
            sched.map(_poison_tasks("raise"))


class TestSchedulerUnits:
    def test_empty_map(self):
        assert SweepScheduler(jobs=2, use_cache=False).map([]) == []

    def test_single_task_stays_in_process(self, monkeypatch):
        # One pending task never pays pool spin-up, whatever ``jobs``.
        import repro.parallel.scheduler as sched_mod

        def boom(*a, **k):  # pragma: no cover - must not run
            raise AssertionError("pool should not be used")

        monkeypatch.setattr(sched_mod.SweepScheduler, "_run_pool", boom)
        (res,) = sched_mod.SweepScheduler(jobs=4, use_cache=False).map(
            _poison_tasks("exit", n=1)
        )
        assert res["ok"] == 1

    def test_serial_jobs_never_import_pool(self, monkeypatch):
        import repro.parallel.scheduler as sched_mod

        monkeypatch.setattr(
            sched_mod.SweepScheduler,
            "_run_pool",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pool")),
        )
        sched = sched_mod.SweepScheduler(jobs=1, use_cache=False)
        results = sched.map(_poison_tasks("exit"))
        assert [r["ok"] for r in results] == [1, 1, 1]

    def test_stats_account_for_every_task(self, tmp_path):
        cache_root = str(tmp_path)
        tasks = [
            PricingTask(
                "repro.parallel.work:poison", {"mode": "exit", "i": i}
            )
            for i in range(4)
        ]
        from repro.parallel import PricingCache

        sched = SweepScheduler(jobs=1, use_cache=True, label="stats")
        sched.cache = PricingCache(root=cache_root)
        first = sched.map(tasks)
        assert sched.last_stats == {
            "dispatched": 4, "cache_hits": 0, "fallback_tasks": 0,
        }
        second = sched.map(tasks)
        assert second == first
        assert sched.last_stats == {
            "dispatched": 0, "cache_hits": 4, "fallback_tasks": 0,
        }


class TestSpanIntegration:
    def test_sweep_span_records_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_PRICING_CACHE", "0")
        with override(Tracer(label="t")) as tracer:
            run_fig4(jobs=1, **_GRID)
        spans = [
            s for s in tracer.span_records() if s["name"] == "parallel.sweep"
        ]
        assert spans
        attrs = spans[0]["attrs"]
        assert attrs["label"] == "fig4"
        assert attrs["jobs"] == 1
        assert attrs["dispatched"] == attrs["tasks"]

    def test_worker_utilization_is_observed(self, cold_cache):
        # A per-call ratio: summing it as a counter reads past 1.
        with override(Tracer(label="t")) as tracer:
            for _ in range(3):
                run_fig4(jobs=2, **_GRID)
        snap = tracer.metrics.snapshot()
        assert "parallel.worker_utilization" not in snap["counters"]
        digest = snap["observations"]["parallel.worker_utilization"]
        assert digest["count"] == 3
        assert digest["max"] <= 1.0


class TestPreparedOperands:
    """Pricing-cache keys stay true to content with the workload memo."""

    def test_writeable_matrix_rehashed_each_call(self, tmp_path):
        coo = uniform_random(256, nnz=2000, seed=3)
        spec = {"n": coo.n_cols, "density": 0.05, "seed": 1}
        tasks = [price_task("ip", HWMode.SC, "4x8", coo, [spec])]
        sched = SweepScheduler(jobs=1, use_cache=True, label="rehash")
        sched.cache = PricingCache(root=str(tmp_path))
        sched.map(tasks)
        assert sched.last_stats["dispatched"] == 1
        sched.map(tasks)
        assert sched.last_stats["cache_hits"] == 1
        coo.vals[0] += 1.0  # same array object, new content
        sched.map(tasks)
        assert sched.last_stats["dispatched"] == 1
        assert sched.last_stats["cache_hits"] == 0

    def test_prepared_keys_equal_keys_of_copies(self, warm_cache):
        coo = fig4_matrix(0, scale=64)
        csc = cached_csc(coo)
        spec = {"n": coo.n_cols, "density": 0.01, "seed": 7}
        tasks = [
            price_task("ip", HWMode.SC, "4x8", coo, [spec]),
            price_task("op", HWMode.PC, "4x8", csc, [spec]),
        ]
        for task in tasks:
            assert all(
                prepared_digest(arr) is not None
                for arr in task.arrays.values()
            )
            copy = PricingTask(
                task.fn,
                task.payload,
                {name: arr.copy() for name, arr in task.arrays.items()},
            )
            assert task_key(task, _DigestMemo().for_task(task)) == task_key(
                copy
            )

    def test_repeated_and_pooled_fig4_rows_equal(self, cold_cache):
        assert fig4_matrix(0, scale=64) is fig4_matrix(0, scale=64)
        first = run_fig4(jobs=1, **_GRID)
        second = run_fig4(jobs=1, **_GRID)
        pooled = run_fig4(jobs=2, **_GRID)
        assert second.rows == first.rows
        assert pooled.rows == first.rows
