"""The flight recorder: a bounded ring of recent telemetry records.

A long-running server cannot retain (or export) every span and event,
and a crash investigated after the fact cannot be re-run with tracing
on.  The flight recorder squares that circle the way avionics do: a
fixed-size ring buffer keeps the **last N** span/event records at all
times — even when JSONL export is off — and the whole ring is dumped
to ``REPRO_CACHE_DIR/flight/`` the moment something goes wrong (a
sanitizer violation / :class:`~repro.errors.SimulationError`) or an
operator asks for it (the serve ``dump`` admin op).

Feeds
-----
* the live :class:`~repro.obs.tracer.Tracer` mirrors every completed
  span and emitted event into the ring;
* the query service records one ``serve_query`` record per answered
  query unconditionally (its telemetry is always on, tracer or not);
* :mod:`repro.analysis.sanitize` records the violation event itself and
  triggers the dump just before raising.

The ring is process-global and thread-safe (serve drivers record from
worker threads).  ``REPRO_FLIGHT`` overrides the capacity; ``0``
disables recording entirely.  Records carry whatever ``t_s`` their
producer stamped (the tracer's records are relative to the tracer
epoch, direct feeds to the ring are relative to the recorder's own
epoch) — a dump is a post-mortem, not a synchronised timeline.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, List, Optional

from .events import SCHEMA_VERSION, event_record

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "recorder",
    "override",
    "read_dump",
]

_ENV_VAR = "REPRO_FLIGHT"

#: Records the ring retains by default.  Big enough to hold the full
#: decision audit of the last few queries, small enough (~hundreds of
#: small dicts) to be irrelevant next to a loaded graph.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Fixed-capacity ring of telemetry records, dumpable on demand."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(0, int(capacity))
        self._records: Deque[dict] = deque(maxlen=self.capacity or 1)
        self._lock = threading.Lock()
        self._epoch_s = time.perf_counter()
        #: Dumps written by this recorder (also sequences dump names).
        self.dumps = 0
        #: Records ever offered (so a wrapped ring still reports how
        #: much history fell off the back).
        self.recorded = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def record(self, record: dict) -> None:
        """Append one already-serialised record (oldest falls off)."""
        if not self.enabled:
            return
        with self._lock:
            self._records.append(record)
            self.recorded += 1

    def record_event(self, event) -> None:
        """Serialise and append one typed event (recorder-epoch time)."""
        if not self.enabled:
            return
        self.record(
            event_record(event, time.perf_counter() - self._epoch_s)
        )

    def snapshot(self) -> List[dict]:
        """The ring's current contents, oldest first."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------
    def dump(
        self, reason: str, directory: Optional[str] = None
    ) -> Optional[str]:
        """Write the ring to a JSONL post-mortem file; returns its path.

        The file leads with a ``flight_header`` record (schema version,
        reason, pid, how much history the ring held vs. ever saw) and
        then the retained records oldest-first.  Dumping must never
        turn a diagnosable failure into a new one: any filesystem error
        is swallowed and ``None`` returned.
        """
        import json

        if not self.enabled:
            return None
        records = self.snapshot()
        if directory is None:
            directory = default_dump_dir()
        with self._lock:
            self.dumps += 1
            seq = self.dumps
        path = os.path.join(
            directory, f"flight-{os.getpid()}-{seq:03d}.jsonl"
        )
        header = {
            "type": "flight_header",
            "schema": SCHEMA_VERSION,
            "reason": str(reason),
            "pid": os.getpid(),
            "retained": len(records),
            "recorded": self.recorded,
        }
        try:
            os.makedirs(directory, exist_ok=True)
            from ..workloads.io import atomic_write

            with atomic_write(path) as tmp:
                with open(tmp, "w", encoding="utf-8") as fh:
                    for record in (header, *records):
                        fh.write(json.dumps(record, sort_keys=True))
                        fh.write("\n")
        except OSError:
            return None
        return path


def default_dump_dir() -> str:
    """Where dumps land: ``REPRO_CACHE_DIR/flight/``."""
    root = os.environ.get("REPRO_CACHE_DIR", os.path.abspath(".repro_cache"))
    return os.path.join(root, "flight")


def read_dump(path: str) -> List[dict]:
    """Parse one dump back into records (header first)."""
    import json

    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# Process-global recorder
# ----------------------------------------------------------------------
_recorder: Optional[FlightRecorder] = None
_lock = threading.Lock()


def _renew_locks() -> None:
    # A child forked while another thread recorded (a pool worker forked
    # under a traced, threaded coordinator) would inherit a held lock.
    global _lock
    _lock = threading.Lock()
    if _recorder is not None:
        _recorder._lock = threading.Lock()


os.register_at_fork(after_in_child=_renew_locks)


def _capacity_from_env() -> int:
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_CAPACITY
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_CAPACITY


def recorder() -> FlightRecorder:
    """The process flight recorder (created lazily from the env)."""
    global _recorder
    if _recorder is None:
        with _lock:
            if _recorder is None:
                _recorder = FlightRecorder(_capacity_from_env())
    return _recorder


@contextmanager
def override(instance: Optional[FlightRecorder]):
    """Swap the process recorder for the block (None re-reads the env)."""
    global _recorder
    with _lock:
        previous = _recorder
        _recorder = instance
    try:
        yield instance
    finally:
        with _lock:
            _recorder = previous
