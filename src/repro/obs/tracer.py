"""Hierarchical span tracer with a null-object off mode.

The instrumented hot paths (``CoSparseRuntime.spmv``, the kernels, the
trace-replay engine, the graph drivers) always call
``tracer.active().span(...)`` / ``.event(...)``; when tracing is off
those land on a shared :class:`NullTracer` whose methods are no-ops, so
the disabled cost is one function call and an attribute test (the same
pattern as :mod:`repro.analysis.sanitize`, budgeted and pinned by
``tests/obs/test_overhead.py``).

Enabling
--------
* ``REPRO_TRACE=1`` in the environment — a process-global
  :class:`Tracer` is created lazily on first use;
* programmatically — :func:`install` a tracer (or the :func:`override`
  context manager for a scoped one), which beats the environment;
* ``python -m repro <artifact> --trace-out PATH`` — the CLI installs a
  tracer for the artifact run and exports it.

What a span records
-------------------
Name, parent, wall-clock start and duration *relative to the tracer's
epoch*, free-form attributes (``span.set(cycles=...)`` attaches modelled
cycles after pricing), and the delta of :data:`repro.perf.counters`
across the span — so one span says both what the model charged and what
the host paid.  Spans a pool worker records come back with its task and
join the coordinator's tracer through :meth:`Tracer.adopt`, tagged with
the worker's ``pid``.

A span's parent is the span open in the same thread or asyncio task (a
:class:`contextvars.ContextVar`; a new thread starts with none open).
``loop.run_in_executor`` does not carry the context over: run the work
through ``contextvars.copy_context().run`` to nest it, as the query
service does.  The counters are process-wide, so under concurrency a
span's counter delta includes other threads' work.

This module is the one place outside :mod:`repro.perf` allowed to read
the host clock (registered in the R4 lint exemption list): wall time
here annotates observability output and never feeds the cycle model.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from contextlib import contextmanager
from typing import List, Optional

from ..perf import counters as _perf
from .events import event_record
from .flight import recorder as _flight_recorder
from .metrics import MetricsRegistry

__all__ = [
    "NullTracer",
    "Tracer",
    "Span",
    "active",
    "enabled",
    "install",
    "override",
    "traced",
]

_ENV_VAR = "REPRO_TRACE"
_FALSEY = {"", "0", "false", "off", "no"}


def _jsonable(value):
    """Best-effort plain-JSON coercion for span attributes."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    label = getattr(value, "label", None)  # HWMode and friends
    if isinstance(label, str):
        return label
    try:
        return float(value)  # numpy scalars
    except (TypeError, ValueError):
        return repr(value)


class _NullSpan:
    """Shared do-nothing span handed out when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The off-mode tracer: every hook is a no-op."""

    enabled = False

    def span(self, name: str, **attrs):
        """A context manager for one traced region (no-op here)."""
        return _NULL_SPAN

    def event(self, event) -> None:
        """Record one typed event (no-op here)."""

    @property
    def metrics(self) -> MetricsRegistry:
        """A throwaway registry (the null tracer keeps nothing)."""
        return MetricsRegistry()


#: The span open in the current thread or asyncio task.
_OPEN_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "repro_open_span", default=None
)


def _open_span_id(tracer: "Tracer") -> Optional[int]:
    """Id of ``tracer``'s span open in this context, if any."""
    span = _OPEN_SPAN.get()
    return span.span_id if span is not None and span._tracer is tracer else None


class Span:
    """One live traced region; created by :meth:`Tracer.span`."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_tracer",
                 "_start_s", "_c0", "_token")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._tracer = tracer
        self._start_s = 0.0
        self._c0: dict = {}

    def set(self, **attrs) -> None:
        """Attach or update attributes (e.g. modelled cycles) mid-span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tr = self._tracer
        self.span_id = next(tr._ids)
        self.parent_id = _open_span_id(tr)
        self._token = _OPEN_SPAN.set(self)
        self._c0 = _perf.snapshot()
        self._start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_s = time.perf_counter()
        tr = self._tracer
        _OPEN_SPAN.reset(self._token)
        record = {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_s": self._start_s - tr.epoch_s,
            "dur_s": end_s - self._start_s,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
            "counters": _perf.since(self._c0),
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        tr.records.append(record)
        # Mirror into the bounded flight ring so the last-N history
        # survives even when this tracer is never exported.
        _flight_recorder().record(record)
        return False


class Tracer(NullTracer):
    """The live tracer: collects span and event records in memory.

    Records accumulate in completion order in :attr:`records`; export
    them with :mod:`repro.obs.export` (JSONL, Chrome trace, summary).
    """

    enabled = True

    def __init__(self, label: str = "run"):
        self.label = label
        self.records: List[dict] = []
        self._metrics = MetricsRegistry()
        self._ids = itertools.count(1)
        #: ``perf_counter()`` at creation; record times are relative to it.
        self.epoch_s = time.perf_counter()

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def event(self, event) -> None:
        record = event_record(event, time.perf_counter() - self.epoch_s)
        self.records.append(record)
        _flight_recorder().record(record)

    def adopt(self, records: List[dict], epoch_s: float, pid: int) -> None:
        """Append another tracer's records (a pool task's) to this one.

        They nest as spans opened here would: every span gets a fresh id
        from this tracer, roots get the span open in this context as
        parent, times move from the other tracer's epoch ``epoch_s`` to
        this one's (``perf_counter`` is system-wide), and every span is
        tagged with the ``pid`` that recorded it.
        """
        parent = _open_span_id(self)
        ids = {r["id"]: next(self._ids) for r in records if r["type"] == "span"}
        shift = epoch_s - self.epoch_s
        for record in records:
            record = dict(record)
            if record["type"] == "span":
                record["id"] = ids[record["id"]]
                record["parent"] = ids.get(record["parent"], parent)
                record["start_s"] += shift
                record["attrs"] = dict(record["attrs"], pid=pid)
            else:
                record["t_s"] += shift
            self.records.append(record)

    # ------------------------------------------------------------------
    def span_records(self) -> List[dict]:
        return [r for r in self.records if r["type"] == "span"]

    def event_records(self, kind: Optional[str] = None) -> List[dict]:
        return [
            r
            for r in self.records
            if r["type"] == "event" and (kind is None or r["event"] == kind)
        ]


# ----------------------------------------------------------------------
# Global tracer management
# ----------------------------------------------------------------------
_NULL = NullTracer()
_installed: Optional[NullTracer] = None
_env_tracer: Optional[Tracer] = None
#: Whether ``REPRO_TRACE`` has been consulted.  ``os.environ`` lookups
#: cost ~1 us each (Mapping + codec machinery) — far too much for the
#: per-invocation hot path — so the environment is read once, on the
#: first :func:`active` call, and again after any :func:`install`.
_env_checked = False


def enabled() -> bool:
    """Whether a live tracer would be handed out by :func:`active`."""
    return active().enabled


def active() -> NullTracer:
    """The tracer the instrumentation should talk to right now."""
    global _env_checked, _env_tracer
    if _installed is not None:
        return _installed
    if not _env_checked:
        _env_checked = True
        if os.environ.get(_ENV_VAR, "").strip().lower() not in _FALSEY:
            _env_tracer = Tracer(label="env")
    return _env_tracer if _env_tracer is not None else _NULL


def install(tracer: Optional[NullTracer]) -> None:
    """Install ``tracer`` as the process tracer (None reverts to the
    environment-driven default, re-reading ``REPRO_TRACE``).  Pass a
    :class:`NullTracer` to force tracing off regardless of the
    environment."""
    global _installed, _env_checked, _env_tracer
    _installed = tracer
    _env_checked = False
    _env_tracer = None


@contextmanager
def override(tracer: Optional[NullTracer]):
    """Install ``tracer`` for the dynamic extent of the block."""
    global _installed
    previous = _installed
    _installed = tracer
    try:
        yield tracer
    finally:
        _installed = previous


def traced(name: str, capture=()):
    """Decorator: run the function under a span named ``name``.

    ``capture`` lists keyword-argument names copied onto the span's
    attributes when present in the call.  When tracing is off the
    wrapper forwards straight to the function.
    """
    import functools

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = active()
            if not tracer.enabled:
                return fn(*args, **kwargs)
            attrs = {k: kwargs[k] for k in capture if k in kwargs}
            with tracer.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
