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
3. **Process pool** — misses are shipped to the process's worker pool
   (:mod:`repro.parallel.pool`: forked once per process and worker
   count, each worker pinned to a CPU of its own, round robin).  Arrays
   the workload memo owns, and a session's pinned arrays, travel by name
   from the process's shared-memory arena, published once; other arrays
   of at least :data:`SHM_MIN_BYTES` through a per-call arena; smaller
   ones inline (:mod:`repro.parallel.shm`).  A worker death
   (``BrokenProcessPool``, from a result or from ``submit``) or a
   per-task timeout triggers **graceful degradation**: the pool is
   dropped, the event is logged as an ``obs`` warning and every
   unfinished task re-runs on the serial path; the next call forks anew.

Worker count resolution: explicit ``jobs=`` argument, else the
``REPRO_JOBS`` environment variable, else ``os.cpu_count()``.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import active as _obs_active
from ..perf import counters as _perf
from ..workloads.io import prepared_digest
from .cache import PricingCache, pricing_cache_enabled
from .tasks import PricingTask, array_digest, task_key
from .work import execute

__all__ = ["SweepScheduler", "resolve_jobs"]

#: Arrays neither the workload memo owns nor a session pins ride a
#: per-call shared-memory segment at or above this many bytes; smaller
#: ones are pickled inline with the task (a segment per tiny frontier
#: would cost more in syscalls than the copy it saves).
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
        #: The arrays an open session pins in the process arena, or
        #: None outside a session.
        self._pinned: Optional[List[np.ndarray]] = None
        #: An open session's unpin, run by close_session or on collection.
        self._unpin: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # Session: arrays pinned in the process arena across map() calls
    # ------------------------------------------------------------------
    def start_session(self, pinned: Sequence[np.ndarray] = ()) -> None:
        """Ship ``pinned`` by reference from the process's shared-memory
        arena until :meth:`close_session`.

        Iterative callers (the sharded cluster runtime dispatches one
        task per worker and superstep, each a group of shards) read the
        same arrays on every call.
        The first task that carries a pinned array publishes it, and
        every task ships it by name from then on, whatever its size.
        Tasks run on the process pool, as outside a session.

        Idempotent while a session is open.  A session started again
        after :meth:`close_session` pins what this call passes.  No-op
        when ``jobs == 1``.  A scheduler collected with its session
        open unpins the arrays then (the arena applies it at its next
        pin, unpin, flush or names call).
        """
        if self._pinned is not None or self.jobs <= 1:
            return
        from .pool import arena

        process_arena = arena()
        self._pinned = list(pinned)
        process_arena.pin(self._pinned)
        # A finalizer may run while this thread holds the arena's lock,
        # so it only queues the unpin.
        self._unpin = weakref.finalize(
            self, process_arena.unpin_later, self._pinned
        )

    def close_session(self) -> None:
        """Unpin the session's arrays; their segments are unlinked."""
        if self._pinned is None:
            return
        from .pool import arena

        self._pinned = None
        self._unpin()  # queues the unpin, once: the finalizer is spent
        arena().flush()

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
        """Fan pending tasks out to the process pool; degrade serially."""
        # Lazy imports: the serial path must not pull these in.
        import concurrent.futures as cf
        import time
        from concurrent.futures.process import BrokenProcessPool

        from . import pool
        from .shm import ShmArena

        workers = self.jobs
        tracer = _obs_active()
        unfinished = list(pending)
        traces: Dict[int, tuple] = {}
        busy_s = 0.0
        failure: Optional[str] = None
        futures: Dict[object, int] = {}
        executor = None
        t_pool0 = time.perf_counter()
        arena, call_arena = pool.arena(), ShmArena()
        try:
            shipped, inline_bytes, shm_bytes = self._ship(
                arena, call_arena, tasks, pending
            )
            context = (arena.names(), _repro_env())
            try:
                executor = pool.pool(workers)
                for i in pending:
                    spec = (
                        i, tasks[i].fn, tasks[i].payload, shipped[i],
                        tracer.enabled, context,
                    )
                    fut = executor.submit(_pool_entry_trampoline, spec)
                    futures[fut] = i
            except RuntimeError as exc:  # BrokenProcessPool, or shut down
                failure = f"the worker pool cannot take tasks ({exc!r})"
            # Collect in *completion* order: a straggler must not
            # block — or worse, discard — results that finished behind
            # it in submission order.  The timeout bounds the wait for
            # the next completion; whatever already landed is kept, and
            # only tasks that truly never finished re-run on the serial
            # fallback path.
            remaining = dict(futures)
            while remaining and failure is None:
                done, _ = cf.wait(
                    remaining,
                    timeout=self.timeout_s,
                    return_when=cf.FIRST_COMPLETED,
                )
                if not done:
                    failure = f"pricing task timed out after {self.timeout_s}s"
                    break
                for fut in done:
                    remaining.pop(fut)
                    try:
                        index, result, task_s, deltas, trace = fut.result()
                    except (BrokenProcessPool, cf.CancelledError) as exc:
                        # Cancelled: another call dropped the shared pool.
                        failure = f"the worker pool failed ({exc!r})"
                        break
                    busy_s += task_s
                    _perf.add(deltas)
                    if trace is not None:
                        traces[index] = trace
                    results[index] = result
                    unfinished.remove(index)
                    if keys[index] is not None and self.cache is not None:
                        self.cache.put(keys[index], tasks[index].fn, result)
        finally:
            if unfinished:
                # A task error propagating leaves the pool healthy: drop
                # what has not started.  A dead or hung worker breaks
                # it: terminate the workers so nothing blocks, and let
                # the next call fork a new pool.
                for fut in futures:
                    fut.cancel()
                if failure is not None and executor is not None:
                    pool.discard(executor)
            call_arena.close()
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
    def _ship(
        process_arena, call_arena, tasks: List[PricingTask], pending: List[int]
    ) -> Tuple[Dict[int, Dict[str, object]], int, int]:
        """Each pending task's arrays as shared-memory refs or inline, plus
        the bytes pickled inline and the bytes newly copied to segments.

        Pinned and memo-owned arrays ship from the process arena; other
        arrays of at least :data:`SHM_MIN_BYTES` from the call's arena.
        """
        shipped: Dict[int, Dict[str, object]] = {}
        refs: Dict[int, tuple] = {}  # id -> (array, ref): one lookup each
        inline_bytes = shm_bytes = 0
        for i in pending:
            out: Dict[str, object] = {}
            for name, arr in tasks[i].arrays.items():
                hit = refs.get(id(arr))
                if hit is None:
                    ref, copied = process_arena.ref_for(arr)
                    if ref is None and arr.nbytes >= SHM_MIN_BYTES:
                        ref, copied = call_arena.publish(arr), arr.nbytes
                    shm_bytes += copied
                    hit = refs[id(arr)] = (arr, ref)
                if hit[1] is None:
                    out[name] = arr
                    inline_bytes += arr.nbytes
                else:
                    out[name] = hit[1]
            shipped[i] = out
        return shipped, inline_bytes, shm_bytes


def _repro_env() -> Dict[str, str]:
    """This process's ``REPRO_*`` variables: a long-lived worker adopts
    them for each task, as a worker forked for the call would have."""
    return {k: os.environ[k] for k in os.environ if k.startswith("REPRO_")}


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
