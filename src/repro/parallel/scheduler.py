"""Deterministic fan-out execution of pricing task grids.

:class:`SweepScheduler` takes the flat list of
:class:`~repro.parallel.tasks.PricingTask` an experiment driver
decomposed its grid into and returns one result dict per task, **in
task-submission order** — the contract that makes every driver's rows
bit-identical regardless of worker count or completion order:

* results land in a slot array indexed by submission position, never
  appended in completion order;
* each task re-derives its randomness from the seeds in its own
  payload (per-worker RNG discipline: no generator state crosses a
  task boundary);
* cached results were produced by the same pure functions and
  round-trip through JSON bit-exactly.

Execution strategy, in order:

1. **Persistent cache** — every cacheable task's content key is looked
   up in the :class:`~repro.parallel.cache.PricingCache`; hits skip
   execution entirely.
2. **Serial in-process** — when the resolved worker count is 1 (or too
   few misses remain to amortise a pool), misses run right here.  This
   path imports neither :mod:`multiprocessing` nor
   :mod:`concurrent.futures`.
3. **Process pool** — misses are shipped to a
   ``ProcessPoolExecutor`` whose workers are each pinned to a CPU of
   their own (round robin); large arrays travel as shared-memory views
   (:mod:`repro.parallel.shm`), small ones inline — or, in a persistent
   session, exactly the session's pinned arrays travel by reference
   (see :meth:`SweepScheduler.start_session`).  A worker death
   (``BrokenProcessPool``) or a per-task timeout triggers **graceful
   degradation**: the event is logged as an ``obs`` warning and every
   unfinished task re-runs on the serial path.

Worker count resolution: explicit ``jobs=`` argument, else the
``REPRO_JOBS`` environment variable, else ``os.cpu_count()``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import active as _obs_active
from ..perf import counters as _perf
from ..workloads.io import prepared_digest
from .cache import PricingCache, pricing_cache_enabled
from .tasks import PricingTask, array_digest, task_key
from .work import execute

__all__ = ["SweepScheduler", "resolve_jobs"]

#: On per-call pools, arrays at or above this many bytes ride shared
#: memory; smaller ones are pickled inline with the task (a segment per
#: tiny frontier would cost more in syscalls than the copy it saves).
SHM_MIN_BYTES = 1 << 20

#: Pools only pay off with enough independent work; below this many
#: cache misses the scheduler stays serial even when jobs > 1.
MIN_TASKS_FOR_POOL = 2


def resolve_jobs(explicit: Optional[int] = None) -> int:
    """Worker count: explicit arg beats ``REPRO_JOBS`` beats cpu count.

    An explicit argument is a programmatic override and is floored at 1
    (the CLI already clamps); the ``REPRO_JOBS`` environment variable is
    user configuration, so a non-positive value is rejected as loudly as
    a non-integer one instead of being silently clamped.
    """
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
        if jobs <= 0:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer, got {env!r}"
            )
        return jobs
    return os.cpu_count() or 1


class SweepScheduler:
    """Executes pricing tasks with caching, fan-out, and ordered merge.

    Parameters
    ----------
    jobs:
        Worker count override (default: :func:`resolve_jobs`).
    timeout_s:
        Maximum seconds to wait for the *next* task completion;
        ``None`` (default) waits forever.  On expiry the pool is torn
        down and only the tasks that never finished re-run serially —
        results collected before the straggler stalled are kept.
    use_cache:
        Override for the persistent pricing cache (default: the
        ``REPRO_PRICING_CACHE`` switch).
    label:
        Name stamped on the scheduler's obs span and metrics.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout_s: Optional[float] = None,
        use_cache: Optional[bool] = None,
        label: str = "sweep",
    ):
        self.jobs = resolve_jobs(jobs)
        self.timeout_s = timeout_s
        self.label = label
        enabled = (
            pricing_cache_enabled() if use_cache is None else bool(use_cache)
        )
        self.cache = PricingCache() if enabled else None
        #: Filled by :meth:`map`: dispatch/cache/fallback accounting of
        #: the most recent run (mirrored into perf counters and obs).
        self.last_stats: Dict[str, float] = {}
        #: Persistent pool session: ``(ShmArena, ProcessPoolExecutor,
        #: pinned)`` reused across :meth:`map` calls, or None (per-call
        #: pools).  ``pinned`` maps ``id(array)`` to the array, whose
        #: reference it retains so a recycled id cannot alias it.
        self._session = None

    # ------------------------------------------------------------------
    # Persistent session: pool + arena reused across map() calls
    # ------------------------------------------------------------------
    def start_session(self, pinned: Sequence[np.ndarray] = ()) -> None:
        """Keep one worker pool and shm arena alive across :meth:`map`.

        Iterative callers (the sharded cluster runtime dispatches K
        shard tasks per superstep) would otherwise fork a fresh pool
        every call.  ``pinned`` holds the arrays every call reads (the
        shard matrices): the first task that carries one publishes it
        to the session's arena, and every task ships it by reference
        from then on, whatever its size.  Nothing else is published in
        a session — all other arrays travel inline — so the session's
        segments, and the workers' attachment caches, stay bounded by
        the pinned set however many calls run.

        Idempotent while a session is open.  A session started again —
        after :meth:`close_session`, or after a pool failure dropped it
        (the usual serial fallback runs first) — pins what this call
        passes into a fresh arena.  No-op when ``jobs == 1``.
        """
        if self._session is not None or self.jobs <= 1:
            return
        from .shm import ShmArena

        self._session = (
            ShmArena(),
            _new_pool(self.jobs),
            {id(arr): arr for arr in pinned},
        )

    def close_session(self) -> None:
        """Shut the persistent pool down and release its shm segments."""
        if self._session is None:
            return
        arena, executor, _pinned = self._session
        self._session = None
        executor.shutdown(wait=True, cancel_futures=True)
        arena.close()

    def __enter__(self) -> "SweepScheduler":
        self.start_session()
        return self

    def __exit__(self, *exc) -> None:
        self.close_session()

    # ------------------------------------------------------------------
    def map(self, tasks: Sequence[PricingTask]) -> List[dict]:
        """Run every task; results in task order, bit-identical to serial."""
        tasks = list(tasks)
        tracer = _obs_active()
        with tracer.span(
            "parallel.sweep", label=self.label, jobs=self.jobs,
            tasks=len(tasks),
        ) as span:
            results = self._map_inner(tasks)
            span.set(**self.last_stats)
            if tracer.enabled:
                for name, value in self.last_stats.items():
                    if name == "worker_utilization":  # a per-call ratio
                        tracer.metrics.observe(f"parallel.{name}", value)
                    else:
                        tracer.metrics.inc(f"parallel.{name}", value)
        return results

    def _map_inner(self, tasks: List[PricingTask]) -> List[dict]:
        results: List[Optional[dict]] = [None] * len(tasks)
        digests = _DigestMemo()
        keys: List[Optional[str]] = [None] * len(tasks)
        pending: List[int] = []
        hits = 0
        for i, task in enumerate(tasks):
            _perf.pricing_tasks += 1
            if self.cache is not None and task.cacheable:
                keys[i] = task_key(task, digests.for_task(task))
                cached = self.cache.get(keys[i])
                if cached is not None:
                    results[i] = cached
                    hits += 1
                    _perf.pricing_cache_hits += 1
                    continue
            _perf.pricing_cache_misses += 1
            pending.append(i)
        stats = {
            "dispatched": len(pending),
            "cache_hits": hits,
            "fallback_tasks": 0,
        }
        use_pool = self.jobs > 1 and len(pending) >= MIN_TASKS_FOR_POOL
        if pending:
            if use_pool:
                self._run_pool(tasks, keys, pending, results, stats)
            else:
                for i in pending:
                    results[i] = self._run_local(tasks[i], keys[i])
        self.last_stats = stats
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_local(self, task: PricingTask, key: Optional[str]) -> dict:
        result = execute(task.fn, task.payload, task.arrays)
        if key is not None and self.cache is not None:
            self.cache.put(key, task.fn, result)
        return result

    def _run_pool(
        self,
        tasks: List[PricingTask],
        keys: List[Optional[str]],
        pending: List[int],
        results: List[Optional[dict]],
        stats: Dict[str, float],
    ) -> None:
        """Fan pending tasks out to a process pool; degrade serially."""
        # Lazy imports: the serial path must not pull these in.
        import concurrent.futures as cf
        import time
        from concurrent.futures.process import BrokenProcessPool

        from .shm import ShmArena

        session = self._session
        if session is None:
            workers = min(self.jobs, len(pending))
            arena = ShmArena()
            executor = _new_pool(workers)
            pinned = None
        else:
            # Session mode: the long-lived pool keeps its full width and
            # the arena keeps the pinned arrays published on first use.
            workers = self.jobs
            arena, executor, pinned = session
        tracer = _obs_active()
        unfinished = list(pending)
        traces: Dict[int, tuple] = {}
        inline_bytes = 0
        shm_before = arena.nbytes
        busy_s = 0.0
        t_pool0 = time.perf_counter()
        try:
            try:
                futures = {}
                for i in pending:
                    shipped, nbytes = self._ship_arrays(
                        arena, tasks[i].arrays, pinned
                    )
                    inline_bytes += nbytes
                    spec = (
                        i, tasks[i].fn, tasks[i].payload, shipped,
                        tracer.enabled,
                    )
                    futures[i] = executor.submit(_pool_entry_trampoline, spec)
                shm_bytes = arena.nbytes - shm_before
                # Collect in *completion* order: a straggler must not
                # block — or worse, discard — results that finished
                # behind it in submission order.  The timeout bounds the
                # wait for the next completion; whatever already landed
                # is kept, and only tasks that truly never finished
                # re-run on the serial fallback path.
                failure: Optional[str] = None
                remaining = {futures[i]: i for i in pending}
                while remaining and failure is None:
                    done, _ = cf.wait(
                        remaining,
                        timeout=self.timeout_s,
                        return_when=cf.FIRST_COMPLETED,
                    )
                    if not done:
                        failure = (
                            f"pricing task timed out after {self.timeout_s}s"
                        )
                        break
                    for fut in done:
                        remaining.pop(fut)
                        try:
                            index, result, task_s, deltas, trace = (
                                fut.result()
                            )
                        except BrokenProcessPool:
                            failure = (
                                "a pricing worker died (BrokenProcessPool)"
                            )
                            break
                        busy_s += task_s
                        _perf.add(deltas)
                        if trace is not None:
                            traces[index] = trace
                        results[index] = result
                        unfinished.remove(index)
                        if keys[index] is not None and self.cache is not None:
                            self.cache.put(
                                keys[index], tasks[index].fn, result
                            )
            finally:
                if unfinished:
                    # Hung/dead workers: cancel what never started and
                    # terminate the rest so shutdown cannot block.  A
                    # failed session pool is not reusable — drop it so
                    # later map() calls build fresh per-call pools.
                    if session is not None:
                        self._session = None
                    for fut in futures.values():
                        fut.cancel()
                    try:
                        for proc in list(
                            getattr(executor, "_processes", {}).values()
                        ):
                            proc.terminate()
                    except Exception:  # pragma: no cover - best effort
                        pass
                if unfinished or session is None:
                    executor.shutdown(
                        wait=not unfinished, cancel_futures=True
                    )
        finally:
            if unfinished or session is None:
                arena.close()
        wall_s = time.perf_counter() - t_pool0
        for i in sorted(traces):  # submission order
            tracer.adopt(*traces[i])
        stats["inline_bytes"] = inline_bytes
        stats["shm_bytes"] = shm_bytes
        if wall_s > 0:
            stats["worker_utilization"] = round(
                busy_s / (workers * wall_s), 4
            )
        if unfinished:
            self._fall_back(tasks, keys, unfinished, results, stats, failure)

    def _fall_back(
        self,
        tasks: List[PricingTask],
        keys: List[Optional[str]],
        unfinished: List[int],
        results: List[Optional[dict]],
        stats: Dict[str, float],
        reason: Optional[str],
    ) -> None:
        """Graceful degradation: finish the sweep on the serial path."""
        message = (
            f"{reason or 'pool failure'}; rerunning "
            f"{len(unfinished)} task(s) serially"
        )
        _perf.pricing_fallbacks += 1
        stats["fallback_tasks"] = len(unfinished)
        tracer = _obs_active()
        if tracer.enabled:
            from ..obs.events import WarningEvent

            tracer.event(
                WarningEvent(source=f"parallel.{self.label}", message=message)
            )
        for i in unfinished:
            results[i] = self._run_local(tasks[i], keys[i])

    # ------------------------------------------------------------------
    @staticmethod
    def _ship_arrays(
        arena, arrays: Dict[str, np.ndarray], pinned: Optional[dict]
    ) -> Tuple[Dict[str, object], int]:
        """Task arrays -> shared-memory refs or inline, plus inline bytes.

        A session (``pinned`` given) ships exactly its pinned arrays by
        reference; a per-call pool publishes arrays of at least
        :data:`SHM_MIN_BYTES`.
        """
        shipped: Dict[str, object] = {}
        inline_bytes = 0
        for name, arr in arrays.items():
            if pinned is None:
                by_ref = arr.nbytes >= SHM_MIN_BYTES
            else:
                by_ref = id(arr) in pinned
            if by_ref:
                shipped[name] = arena.publish(arr)
            else:
                shipped[name] = arr
                inline_bytes += arr.nbytes
        return shipped, inline_bytes


def _new_pool(workers: int):
    """A process pool whose workers share this process's resource tracker
    and run on a CPU each.

    Forked workers inherit the tracker only if it is running before they
    start.  A worker that launched its own would, on exit, unlink and
    warn about every shared-memory segment it had attached.

    Forked workers also start on this process's CPU.  Where the kernel
    does not balance load across CPUs (a cpuset with load balancing off,
    as in some containers), two workers can then share one CPU for the
    pool's whole life while another CPU idles, which halves the pool's
    throughput at random from one pool to the next.  The shared counter
    lets :func:`~repro.parallel.work.pool_init` pin the i-th worker to
    start to the i-th allowed CPU, round robin.
    """
    import concurrent.futures as cf
    import multiprocessing
    from multiprocessing import resource_tracker

    from .work import pool_init

    resource_tracker.ensure_running()
    return cf.ProcessPoolExecutor(
        max_workers=workers,
        initializer=pool_init,
        initargs=(multiprocessing.Value("i", 0),),
    )


def _pool_entry_trampoline(spec):
    """Top-level picklable pool entry (fork ships it by reference)."""
    from .work import pool_entry

    return pool_entry(spec)


class _DigestMemo:
    """Per-run array-digest memo keyed by buffer identity.

    Matrices are shared (by reference) across hundreds of tasks in one
    sweep; hashing each buffer once caps the cache-key cost at one pass
    over each distinct array.  Array references are retained so a
    recycled ``id()`` can never alias a stale digest.  A read-only
    workload matrix (or CSC copy) the workload cache holds brings the
    digest stored with it, hashed once per process
    (:func:`~repro.workloads.io.prepared_digest`); every other array is
    hashed again on each :meth:`SweepScheduler.map` call, so an array
    written between calls never reuses a stale digest.
    """

    def __init__(self):
        self._by_id: Dict[int, tuple] = {}

    def for_task(self, task: PricingTask) -> Dict[str, str]:
        out = {}
        for name, arr in task.arrays.items():
            entry = self._by_id.get(id(arr))
            if entry is None:
                entry = (arr, prepared_digest(arr) or array_digest(arr))
                self._by_id[id(arr)] = entry
            out[name] = entry[1]
        return out
