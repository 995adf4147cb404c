"""The unit of parallel pricing work: :class:`PricingTask`.

A task is a *pure* description of one unit of pricing work — for
:func:`~repro.parallel.work.price_config`, a row of points on one
matrix, system and kernel — as a registry function name, a JSON-able
payload, and the numpy arrays the function reads (matrices, frontiers,
current-value vectors).  Purity is the contract everything else rests
on:

* the :class:`~repro.parallel.scheduler.SweepScheduler` may run the
  task in this process, in a pool worker, or not at all (persistent
  cache hit) — the result must be identical in every case;
* the persistent pricing cache keys a task by the content hash of
  ``(fn, payload, array digests, code version)``, so a task must not
  read anything that is not in the task.

Task functions are addressed as ``"module.path:function"`` and resolve
through :func:`repro.parallel.work.execute`; they receive
``(payload, arrays)`` and return a plain JSON-able dict (floats, ints,
strings, lists, ``None``).  Arrays travel to pool workers either inline
or as :class:`~repro.parallel.shm.SharedArrayRef` views over
``multiprocessing.shared_memory`` (the workload memo's arrays, a
session's pinned ones, and other large ones), see the scheduler.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = ["PricingTask", "array_digest", "task_key", "PRICING_CACHE_SCHEMA"]

#: Bump when task payload semantics or result shapes change: the hash
#: feeds every cache key, so stale entries die with the old schema.
PRICING_CACHE_SCHEMA = 2


@dataclass
class PricingTask:
    """One independent pricing point of an experiment grid.

    Parameters
    ----------
    fn:
        Task function as ``"module.path:function"`` (resolved by
        :func:`repro.parallel.work.execute`).
    payload:
        JSON-able keyword data for the function.  Everything that
        influences the result and is not an array belongs here — it is
        hashed into the cache key verbatim.
    arrays:
        Named numpy arrays the function reads.  The scheduler ships
        them to workers (shared memory for the workload memo's arrays,
        a session's pinned ones and those above a size threshold) and
        hashes their content into the cache key.
    cacheable:
        Whether the result may be persisted.  Tasks returning large
        functional outputs (e.g. a frontier advance) opt out.
    """

    fn: str
    payload: Dict[str, object]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    cacheable: bool = True


def array_digest(arr: np.ndarray) -> str:
    """Content digest of one array: sha256 over dtype/shape/raw bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def task_key(
    task: PricingTask, digests: Optional[Dict[str, str]] = None
) -> str:
    """The task's content-addressed cache key.

    ``digests`` maps array name -> digest for arrays already hashed by
    the caller (the scheduler memoises per-buffer digests so a matrix
    shared by hundreds of tasks is hashed once).
    """
    from .. import __version__

    digests = digests or {}
    parts = {
        "schema": PRICING_CACHE_SCHEMA,
        "version": __version__,
        "fn": task.fn,
        "payload": task.payload,
        "arrays": {
            name: digests.get(name) or array_digest(arr)
            for name, arr in sorted(task.arrays.items())
        },
    }
    blob = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()
