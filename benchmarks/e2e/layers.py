"""Outside-in layer tracing for the benchmark's traced run.

The traced run wraps the public entry point of each layer of
``src/repro`` *from here*, by replacing a module or class attribute
with a timing wrapper; the library itself is never edited.  Each
wrapper records a span:

* a **sync** span lives on a per-thread stack.  When it ends, its
  duration is added to its parent's child time, and its *self time* is
  its duration minus that child time.  The self times of one thread
  therefore partition the time covered by that thread's root spans
  (its traced wall time), which :meth:`LayerTracer.thread_violations`
  checks;
* an **async** span (a coroutine function such as
  ``QueryService.handle``) interleaves with others on one event-loop
  thread, so it never joins the stack: it records only its inclusive
  time from first step to completion.

A target that cannot be imported or looked up is listed in
:attr:`LayerTracer.absent` and its metrics read zero; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "TARGETS", "LayerTracer"]


@dataclass(frozen=True)
class Target:
    """One patch point: ``module`` + dotted ``attr`` recorded as ``layer``.

    ``count`` optionally maps the wrapped call's return value to
    ``(counter name, amount)``, for work counts only the result knows.
    """

    layer: str
    module: str
    attr: str
    count: Optional[Callable[[object], Tuple[str, float]]] = None


def _iterations(run) -> Tuple[str, float]:
    return "graphs.iterations", float(len(run.log))


#: Every layer boundary the traced run records.  Functions that other
#: modules import by name are patched where they are called from: the
#: runtime's and the sweep tasks' kernels, ``repro.experiments.fig4
#: .fig4_matrix``.  The graph drivers are looked up on the package at
#: call time by the serve layer and by the workloads, so patching the
#: package attribute covers every caller.
TARGETS: Tuple[Target, ...] = (
    Target("spmv.ip", "repro.core.runtime", "inner_product"),
    Target("spmv.ip", "repro.parallel.work", "inner_product"),
    Target("spmv.op", "repro.core.runtime", "outer_product"),
    Target("spmv.op", "repro.parallel.work", "outer_product"),
    Target("spmv.ip_batch", "repro.core.runtime", "inner_product_batch"),
    Target("spmv.op_batch", "repro.core.runtime", "outer_product_batch"),
    Target("core.spmv", "repro.core.runtime", "CoSparseRuntime.spmv"),
    Target(
        "core.spmv_batch", "repro.core.runtime", "CoSparseRuntime.spmv_batch"
    ),
    Target("core.decide", "repro.core.decision", "DecisionTree.decide"),
    *(
        Target("graphs.driver", "repro.graphs", name, count=_iterations)
        for name in (
            "bfs",
            "sssp",
            "bfs_multi",
            "sssp_multi",
            "pagerank",
            "collaborative_filtering",
        )
    ),
    Target("hardware.run", "repro.hardware.system", "TransmuterSystem.run"),
    Target(
        "hardware.evaluate",
        "repro.hardware.system",
        "TransmuterSystem.evaluate_without_switching",
    ),
    Target("experiments.driver", "repro.experiments.fig4", "run_fig4"),
    Target("parallel.map", "repro.parallel.scheduler", "SweepScheduler.map"),
    Target("parallel.cache.get", "repro.parallel.cache", "PricingCache.get"),
    Target("parallel.cache.put", "repro.parallel.cache", "PricingCache.put"),
    Target("cluster.spmv", "repro.cluster.runtime", "ShardedRuntime.spmv"),
    Target("cluster.exchange", "repro.cluster.topology", "FullMesh.exchange"),
    Target(
        "cluster.exchange", "repro.cluster.topology", "SwitchedStar.exchange"
    ),
    Target("serve.handle", "repro.serve.server", "QueryService.handle"),
    Target("serve.encode", "repro.serve.protocol", "encode_frame"),
    Target("workloads.generate", "repro.experiments.common", "table3_graph"),
    Target("workloads.generate", "repro.experiments.common", "fig4_matrix"),
    Target("workloads.generate", "repro.experiments.fig4", "fig4_matrix"),
)


class _Frame:
    __slots__ = ("start", "child")

    def __init__(self, start: float):
        self.start = start
        self.child = 0.0


class LayerTracer:
    """Per-layer self time, inclusive time and call counts.

    ``clock`` is injectable so tests can drive the arithmetic exactly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.absent: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()
        # Pool workers forked from a traced process inherit the patched
        # functions; their spans could never reach this process, so the
        # wrappers there only pass calls through.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every accumulator (patches stay installed)."""
        with self._lock:
            self.self_s: Dict[str, float] = defaultdict(float)
            self.total_s: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.counts: Dict[str, float] = defaultdict(float)
            #: (layer, thread name) -> inclusive seconds.
            self.by_thread: Dict[Tuple[str, str], float] = defaultdict(float)
            #: thread name -> seconds covered by that thread's root spans.
            self.thread_wall: Dict[str, float] = defaultdict(float)
            #: thread name -> summed self time of that thread's spans.
            self.thread_self: Dict[str, float] = defaultdict(float)

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, layer: str):
        """Context manager recording one sync span of ``layer``."""
        return _SyncSpan(self, layer)

    def _enter(self) -> None:
        self._stack().append(_Frame(self.clock()))

    def _exit(self, layer: str) -> None:
        end = self.clock()
        stack = self._stack()
        frame = stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        thread = threading.current_thread().name
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.self_s[layer] += own
            self.total_s[layer] += duration
            self.calls[layer] += 1
            self.by_thread[(layer, thread)] += duration
            self.thread_self[thread] += own
            if not stack:
                self.thread_wall[thread] += duration

    def _record_async(self, layer: str, duration: float) -> None:
        thread = threading.current_thread().name
        with self._lock:
            self.total_s[layer] += duration
            self.calls[layer] += 1
            self.by_thread[(layer, thread)] += duration

    def _count(self, target: Target, result) -> None:
        name, amount = target.count(result)
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------
    # Wrapping and patching
    # ------------------------------------------------------------------
    def wrap(self, target: Target, fn):
        """A wrapper recording ``target.layer`` around every call of ``fn``."""
        tracer = self
        layer = target.layer
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                start = tracer.clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._record_async(layer, tracer.clock() - start)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(layer):
                result = fn(*args, **kwargs)
            if target.count is not None:
                tracer._count(target, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Patch every resolvable target; list the rest in :attr:`absent`."""
        for target in targets:
            owner, name, original = self._resolve(target)
            if owner is None:
                self.absent.append(f"{target.module}:{target.attr}")
                continue
            setattr(owner, name, self.wrap(target, original))
            self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @staticmethod
    def _resolve(target: Target):
        """``(owner, attribute name, plain function)`` or ``(None, ..)``."""
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return None, None, None
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        if inspect.isclass(owner):
            # Only plain functions defined on the class bind as methods
            # through a wrapper; static/class methods are not patched.
            original = owner.__dict__.get(name)
        else:
            original = getattr(owner, name, None)
        if not inspect.isfunction(original):
            return None, None, None
        return owner, name, original

    # ------------------------------------------------------------------
    def thread_violations(self, tolerance_s: float = 1e-9) -> List[str]:
        """Threads whose summed self time exceeds their traced wall time."""
        return [
            f"thread {thread}: self {self.thread_self[thread]:.6f} s > "
            f"traced wall {wall:.6f} s"
            for thread, wall in sorted(self.thread_wall.items())
            if self.thread_self[thread] > wall + tolerance_s
        ]


class _SyncSpan:
    __slots__ = ("tracer", "layer", "entered")

    def __init__(self, tracer: LayerTracer, layer: str):
        self.tracer = tracer
        self.layer = layer
        self.entered = False

    def __enter__(self):
        self.entered = self.tracer.enabled
        if self.entered:
            self.tracer._enter()
        return self

    def __exit__(self, *exc):
        if self.entered:
            self.tracer._exit(self.layer)
        return False
