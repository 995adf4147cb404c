"""Shared-memory transport for the sweep workloads.

The matrices an experiment grid prices are by far its largest payload
(the full Fig. 4 suite carries 4M-nnz COO/CSC triples); pickling them
into every pool task would copy hundreds of megabytes per sweep.  The
:class:`ShmArena` instead publishes each distinct array **once** into a
``multiprocessing.shared_memory`` segment; tasks then carry a tiny
:class:`SharedArrayRef` and workers map a zero-copy, read-only numpy
view over the same physical pages.

Lifecycle: the scheduler owns the arena for the duration of one pool
run — publish before submit, ``close()`` (which unlinks) after the last
future resolves — or, in a persistent session, until the session ends;
a session publishes only the arrays pinned to it.  Workers keep their
attachments cached per segment name for the life of the process; they
never unlink.  Workers share the coordinator's resource tracker (the
scheduler starts it before any pool), so a worker's attach re-registers
a name the tracker already holds, and the coordinator's unlink is the
one unregister.

This module is imported lazily by the scheduler: the ``REPRO_JOBS=1``
serial path never touches :mod:`multiprocessing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Tuple

import numpy as np

__all__ = ["SharedArrayRef", "ShmArena", "attach"]


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable descriptor of one array published to shared memory."""

    segment: str
    dtype: str
    shape: Tuple[int, ...]


class ShmArena:
    """Publishes numpy arrays into shared memory, once per buffer."""

    def __init__(self):
        self._segments = []
        #: Bytes copied into the live segments.
        self.nbytes = 0
        #: id(array) -> (array, ref).  The array reference is retained
        #: so a garbage-collected buffer cannot recycle the id and
        #: alias a stale cache entry.
        self._published: Dict[int, Tuple[np.ndarray, SharedArrayRef]] = {}

    def publish(self, arr: np.ndarray) -> SharedArrayRef:
        """Copy ``arr`` into a segment (memoised per buffer identity)."""
        hit = self._published.get(id(arr))
        if hit is not None:
            return hit[1]
        contiguous = np.ascontiguousarray(arr)
        seg = shared_memory.SharedMemory(
            create=True, size=max(contiguous.nbytes, 1)
        )
        # Register ownership before touching the buffer: if the copy
        # below raises, close() still reaches the segment.
        self._segments.append(seg)
        view = np.ndarray(contiguous.shape, contiguous.dtype, buffer=seg.buf)
        view[...] = contiguous
        self.nbytes += contiguous.nbytes
        ref = SharedArrayRef(seg.name, str(contiguous.dtype), contiguous.shape)
        self._published[id(arr)] = (arr, ref)
        return ref

    def close(self) -> None:
        """Release and unlink every published segment."""
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):  # already gone
                pass
        self._segments.clear()
        self._published.clear()
        self.nbytes = 0

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


#: Worker-side attachment cache: segment name -> (SharedMemory, view).
#: Attachments live for the worker process's lifetime; the parent is
#: the only unlinker.
_attached: Dict[str, Tuple[object, np.ndarray]] = {}


def attach(ref: SharedArrayRef) -> np.ndarray:
    """A read-only numpy view over the referenced segment (cached)."""
    hit = _attached.get(ref.segment)
    if hit is not None:
        return hit[1]
    seg = shared_memory.SharedMemory(name=ref.segment)
    try:
        view = np.ndarray(ref.shape, np.dtype(ref.dtype), buffer=seg.buf)
        view.flags.writeable = False
    except BaseException:
        seg.close()
        raise
    _attached[ref.segment] = (seg, view)
    return view
