"""Shared-memory transport for pooled tasks.

The matrices an experiment grid prices are by far its largest payload
(the full Fig. 4 suite carries 4M-nnz COO/CSC triples); pickling them
into every pool task would copy hundreds of megabytes per sweep.  Each
array is instead copied once into a ``multiprocessing.shared_memory``
segment; tasks carry a tiny :class:`SharedArrayRef` and workers map a
zero-copy, read-only numpy view over the same physical pages.

Two owners publish segments in the coordinator:

* :class:`ProcessArena` — one per process (see :mod:`repro.parallel
  .pool`), for the arrays that outlive a call.  An array the workload
  memo owns (:func:`~repro.workloads.io.prepared_digest`) is published
  once, under a name derived from its content digest, and unlinked once
  the memo has evicted it: at the latest when the arena next creates a
  segment, so the arena stays within the memo's byte budget.  An array
  a session pins (:meth:`ProcessArena.pin`) is published on first use
  and unlinked when its last pin goes (a session dropped unclosed lets
  go through :meth:`ProcessArena.unpin_later`).
* :class:`ShmArena` — one per pooled call, for other arrays of at least
  the scheduler's size threshold; ``close()`` unlinks them after the
  call.

Workers attach by name.  A reference to a process-arena segment is
``kept``: the worker caches its attachment until a later task's list of
live names (:func:`release`) no longer holds it.  Any other attachment
lasts one task.  Workers share the coordinator's resource tracker (the
pool starts it before forking), so a worker's attach re-registers a
name the tracker already holds, and the coordinator's unlink is the one
unregister.

This module is imported lazily by the scheduler: the ``REPRO_JOBS=1``
serial path never touches :mod:`multiprocessing`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..workloads.io import prepared_digest, prepared_digests

__all__ = ["SharedArrayRef", "ShmArena", "ProcessArena", "attach", "release"]


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable descriptor of one array published to shared memory."""

    segment: str
    dtype: str
    shape: Tuple[int, ...]
    #: A process-arena segment: workers may keep it attached until the
    #: arena drops it.  Other segments are attached for one task.
    kept: bool = False


def _create(size: int, name: Optional[str]) -> shared_memory.SharedMemory:
    """A new segment of ``size`` bytes, named ``name`` when that is free."""
    if name is not None:
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # left behind by a dead process
            pass
    return shared_memory.SharedMemory(create=True, size=size)


def _publish(
    arr: np.ndarray, kept: bool, name: Optional[str] = None
) -> Tuple[shared_memory.SharedMemory, SharedArrayRef]:
    """Copy ``arr`` into a new segment, named ``name`` when that is free."""
    contiguous = np.ascontiguousarray(arr)
    seg = _create(max(contiguous.nbytes, 1), name)
    try:
        np.ndarray(contiguous.shape, contiguous.dtype, buffer=seg.buf)[
            ...
        ] = contiguous
    except BaseException:
        _unlink(seg)
        raise
    ref = SharedArrayRef(
        seg.name, str(contiguous.dtype), contiguous.shape, kept=kept
    )
    return seg, ref


def _unlink(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
        seg.unlink()
    except (FileNotFoundError, OSError):  # already gone
        pass


def _unlink_all(segments: Iterable[shared_memory.SharedMemory]) -> None:
    for seg in segments:
        _unlink(seg)


class ShmArena:
    """One call's segments: each array published once per buffer."""

    def __init__(self):
        #: id(array) -> (array, segment, ref).  The array reference is
        #: retained so a garbage-collected buffer cannot recycle the id
        #: and alias a stale entry.
        self._published: Dict[int, tuple] = {}

    def publish(self, arr: np.ndarray) -> SharedArrayRef:
        """Copy ``arr`` into a segment (memoised per buffer identity)."""
        hit = self._published.get(id(arr))
        if hit is not None:
            return hit[2]
        seg, ref = _publish(arr, kept=False)
        self._published[id(arr)] = (arr, seg, ref)
        return ref

    def close(self) -> None:
        """Release and unlink every published segment."""
        published, self._published = self._published, {}
        for _arr, seg, _ref in published.values():
            _unlink(seg)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class ProcessArena:
    """The process's long-lived segments: memo-owned arrays by content
    digest, session-pinned arrays by identity.  Thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        #: digest -> (segment, ref) of a memo-owned array.
        self._by_digest: Dict[str, tuple] = {}
        #: id(array) -> [array, pin count, (segment, ref) or None].
        self._pinned: Dict[int, list] = {}
        #: :meth:`names`, rebuilt after any segment comes or goes.
        self._names: Optional[Tuple[str, ...]] = ()
        #: Array lists :meth:`unpin_later` queued; the next pin, unpin,
        #: flush or names call (a pooled map calls names) applies them.
        self._released: List[List[np.ndarray]] = []

    def pin(self, arrays: Iterable[np.ndarray]) -> None:
        """Ship ``arrays`` by reference until :meth:`unpin`, whatever their
        size; each is published on first use."""
        with self._lock:
            gone = self._drain_locked()
            for arr in arrays:
                entry = self._pinned.setdefault(id(arr), [arr, 0, None])
                entry[1] += 1
        _unlink_all(gone)

    def unpin(self, arrays: Iterable[np.ndarray]) -> None:
        """Drop one pin of each array; unlink those no longer pinned."""
        with self._lock:
            gone = self._drain_locked()
            self._unpin_locked(arrays, gone)
        _unlink_all(gone)

    def unpin_later(self, arrays: Iterable[np.ndarray]) -> None:
        """Queue one unpin of each array, for the next locked operation.

        Takes no lock, so a garbage-collection finalizer may call it at
        any point, even while this thread holds the (non-reentrant)
        lock: a scheduler session dropped without being closed lets go
        of its pins this way.  The next :meth:`pin`, :meth:`unpin`,
        :meth:`flush` or :meth:`names` call applies the queue.
        """
        self._released.append(list(arrays))

    def flush(self) -> None:
        """Apply the queued unpins now; unlink what is no longer pinned."""
        with self._lock:
            gone = self._drain_locked()
        _unlink_all(gone)

    def _unpin_locked(self, arrays, gone: list) -> None:
        for arr in arrays:
            entry = self._pinned.get(id(arr))
            if entry is None or entry[0] is not arr:
                continue
            entry[1] -= 1
            if entry[1] == 0:
                del self._pinned[id(arr)]
                if entry[2] is not None:
                    gone.append(entry[2][0])
                    self._names = None

    def _drain_locked(self) -> list:
        """Apply the queued unpins; returns the segments to unlink once
        the lock is released."""
        gone: list = []
        while self._released:
            self._unpin_locked(self._released.pop(), gone)
        return gone

    def ref_for(
        self, arr: np.ndarray
    ) -> Tuple[Optional[SharedArrayRef], int]:
        """``(ref, bytes copied)`` for an array this arena ships: a
        pinned one, or one the workload memo owns; ``(None, 0)`` for
        any other."""
        # Lock-free fast paths (single dict reads): a pinned array
        # already published, and a writeable array nobody pinned, which
        # the memo cannot own (its arrays are read-only).
        entry = self._pinned.get(id(arr))
        if entry is not None and entry[0] is arr and entry[2] is not None:
            return entry[2][1], 0
        if entry is None and arr.flags.writeable:
            return None, 0
        with self._lock:
            entry = self._pinned.get(id(arr))
            if entry is not None and entry[0] is arr:
                if entry[2] is None:
                    entry[2] = _publish(arr, kept=True)
                    self._names = None
                    return entry[2][1], arr.nbytes
                return entry[2][1], 0
            digest = None if arr.flags.writeable else prepared_digest(arr)
            if digest is None:
                return None, 0
            hit = self._by_digest.get(digest)
            if hit is not None:
                return hit[1], 0
            self._prune_locked()
            name = f"psm_{os.getpid():x}_{digest[:16]}"
            self._by_digest[digest] = _publish(arr, kept=True, name=name)
            self._names = None
            return self._by_digest[digest][1], arr.nbytes

    def _prune_locked(self) -> None:
        """Unlink the segments of arrays the workload memo has evicted."""
        held = prepared_digests()
        for digest in [d for d in self._by_digest if d not in held]:
            _unlink(self._by_digest.pop(digest)[0])
            self._names = None

    def _segments_locked(self) -> List[shared_memory.SharedMemory]:
        segments = [seg for seg, _ref in self._by_digest.values()]
        return segments + [e[2][0] for e in self._pinned.values() if e[2]]

    def names(self) -> Tuple[str, ...]:
        """The names of every live segment (what workers may keep)."""
        with self._lock:
            gone = self._drain_locked()
            if self._names is None:
                self._names = tuple(s.name for s in self._segments_locked())
            names = self._names
        _unlink_all(gone)
        return names

    def close(self) -> None:
        """Unlink every segment; pins are forgotten."""
        with self._lock:
            self._released.clear()
            segments = self._segments_locked()
            self._by_digest.clear()
            self._pinned.clear()
            self._names = ()
        _unlink_all(segments)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Segment name -> (SharedMemory, view) of each kept attachment.
_attached: Dict[str, Tuple[object, np.ndarray]] = {}
#: The current task's other attachments, closed by :func:`release`.
_transient: List[shared_memory.SharedMemory] = []
#: Dropped attachments a worker memo still reads (a sharded run's
#: runtime holds views of its shard arrays): closed once it lets go.
_retired: List[shared_memory.SharedMemory] = []


def attach(ref: SharedArrayRef) -> np.ndarray:
    """A read-only numpy view over the referenced segment."""
    if ref.kept:
        hit = _attached.get(ref.segment)
        if hit is not None:
            return hit[1]
    seg = shared_memory.SharedMemory(name=ref.segment)
    try:
        # ``frombuffer`` holds a buffer export for as long as any view
        # lives, so closing the segment under a live view raises
        # BufferError instead of unmapping pages the view still reads.
        count = int(np.prod(ref.shape, dtype=np.int64))
        view = np.frombuffer(seg.buf, np.dtype(ref.dtype), count)
        view = view.reshape(ref.shape)
        view.flags.writeable = False
    except BaseException:
        seg.close()
        raise
    if ref.kept:
        _attached[ref.segment] = (seg, view)
    else:
        _transient.append(seg)
    return view


def release(live: Optional[Sequence[str]] = None) -> None:
    """Close the current task's attachments of per-call segments, and,
    given the process arena's ``live`` names, the kept attachments of
    segments it has dropped since."""
    dropped = list(_transient)
    _transient.clear()
    if live is not None:
        keep: Set[str] = set(live)
        for name in [n for n in _attached if n not in keep]:
            dropped.append(_attached.pop(name)[0])
    pending = _retired + dropped
    _retired.clear()
    for seg in pending:
        try:
            seg.close()
        except BufferError:  # a view of it is still alive
            _retired.append(seg)
