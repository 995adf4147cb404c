"""One worker pool and one shared-memory arena per process.

Forking workers and copying matrices into shared memory cost more than
a quick sweep's pricing, so a process pays for them once:

* :func:`pool` — the process's ``ProcessPoolExecutor``, created on
  first use and kept across :meth:`~repro.parallel.scheduler
  .SweepScheduler.map` calls and scheduler instances.  A call that asks
  for another worker count replaces it; a pool that breaks (a worker
  died, a task timed out) is dropped (:func:`discard`) and the next call
  forks anew.
* :func:`arena` — the process's :class:`~repro.parallel.shm
  .ProcessArena`: the workload memo's arrays, published once each, and
  the arrays scheduler sessions pin.

A forked child forgets both: its parent's workers are not its own, and
its parent unlinks the segments.  At exit the pool is shut down and
every segment is unlinked.

Imported lazily by the scheduler, like :mod:`repro.parallel.shm`: the
``REPRO_JOBS=1`` serial path imports no :mod:`multiprocessing`.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Optional, Tuple

__all__ = ["pool", "discard", "arena", "shutdown"]

_lock = threading.Lock()
#: (executor, worker count), or None before the first pooled call.
_pool: Optional[Tuple[object, int]] = None
_arena = None
#: The pid whose exit hook is registered (a forked child registers its
#: own when it first needs a pool or an arena).
_hooked_pid: Optional[int] = None


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


def _hook_exit() -> None:
    """Register :func:`shutdown` to run when this process exits (lock
    held).  ``multiprocessing``'s exit hook runs in the main process at
    interpreter exit and in a pool worker before it leaves."""
    global _hooked_pid
    if _hooked_pid != os.getpid():
        from multiprocessing import util

        util.Finalize(None, shutdown, exitpriority=0)
        _hooked_pid = os.getpid()


def pool(workers: int):
    """The process's pool of ``workers`` workers."""
    global _pool
    old = None
    with _lock:
        if _pool is not None and _pool[1] != workers:
            old, _pool = _pool[0], None
        if _pool is None:
            _hook_exit()
            _pool = (_new_pool(workers), workers)
        executor = _pool[0]
    if old is not None:  # another thread's tasks on it still finish
        old.shutdown(wait=True)
    return executor


def discard(executor) -> None:
    """Drop a broken or hung pool: terminate its workers so that shutting
    it down cannot block, and let the next call fork a new one."""
    global _pool
    with _lock:
        if _pool is not None and _pool[0] is executor:
            _pool = None
    try:
        for proc in list(getattr(executor, "_processes", {}).values()):
            proc.terminate()
    except Exception:  # pragma: no cover - best effort
        pass
    executor.shutdown(wait=False, cancel_futures=True)


def arena():
    """The process's :class:`~repro.parallel.shm.ProcessArena`."""
    global _arena
    with _lock:
        if _arena is None:
            from .shm import ProcessArena

            _hook_exit()
            _arena = ProcessArena()
        return _arena


def shutdown() -> None:
    """Shut the pool down and unlink every segment of the arena."""
    global _pool, _arena
    with _lock:
        executor = None if _pool is None else _pool[0]
        old_arena, _pool, _arena = _arena, None, None
    if executor is not None:
        executor.shutdown(wait=True, cancel_futures=True)
    if old_arena is not None:
        old_arena.close()


def _forget() -> None:
    global _lock, _pool, _arena
    _lock = threading.Lock()
    _pool = None
    _arena = None
    # Workers fork from a process whose other threads may be creating or
    # unlinking segments: a child would inherit the resource tracker's
    # lock held by a thread it does not have, and hang at its first
    # attach.
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._lock = threading.RLock()


os.register_at_fork(after_in_child=_forget)
