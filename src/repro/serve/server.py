"""The long-running graph-analytics query service.

``python -m repro.serve`` stands up an asyncio TCP server that owns
loaded graphs (:class:`~repro.serve.registry.GraphRegistry`) and
answers BFS / SSSP / PageRank / CF queries over the length-prefixed
JSON protocol (:mod:`repro.serve.protocol`).  The pipeline per query:

1. **result cache** — a repeated ``(algorithm, source, params)`` query
   on the same graph is answered from the per-graph LRU without
   touching the runtime;
2. **coalescer** — concurrent same-graph single-source BFS/SSSP
   queries merge into one ``bfs_multi``/``sssp_multi`` execution
   (:mod:`repro.serve.coalesce`), each column bit-identical to the
   lone query's answer;
3. **admission** — a semaphore bounds concurrent executions
   (``concurrency``), a per-graph lock serialises access to each
   stateful runtime, and the blocking driver call runs on a worker
   thread so the event loop keeps accepting frames (which is what
   lets a burst pile into the coalescer behind a running batch).

Observability: when a tracer is live every answered query gets a
``serve.query`` span and a ``serve_query`` event, and queue-depth /
coalesce-width observations land in the tracer's metrics registry.
Driver work runs on the executor in a copy of the query's context, so
its spans nest under the query that ran it.  Wall-clock here measures
*service latency* and never feeds the cycle model (``repro/serve/`` is
on the R4 lint allowlist next to ``repro/obs/``).
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError, ServeError, SimulationError
from ..obs.events import ServeQueryEvent, WarningEvent
from ..obs.flight import recorder as _flight_recorder
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import active as _obs_active
from .admin import LATENCY_METRIC, health_wire, stats_wire
from .coalesce import DEFAULT_MAX_WIDTH, DEFAULT_WINDOW_S, Coalescer
from .protocol import error_response, ok_response, read_frame, write_frame
from .registry import DEFAULT_RESULT_CACHE_SIZE, GraphRegistry, LoadedGraph

__all__ = [
    "ServeConfig",
    "QueryService",
    "ServeServer",
    "ServerHandle",
    "run_in_thread",
    "ALGORITHMS",
]

#: Algorithms the service answers.  BFS/SSSP are single-source and
#: coalescable; PageRank/CF are whole-graph and cached but never
#: batched (their K dimension is internal already).
ALGORITHMS = ("bfs", "sssp", "pagerank", "cf")
_COALESCABLE = ("bfs", "sssp")

#: Per-algorithm query parameters accepted on the wire; anything else
#: in ``params`` is rejected loudly instead of silently ignored.
_PARAM_KEYS = {
    "bfs": ("max_iters",),
    "sssp": ("max_iters",),
    "pagerank": ("alpha", "max_iters", "tol"),
    "cf": ("k", "lambda_", "beta", "iterations", "seed"),
}


@dataclass
class ServeConfig:
    """Everything a server instance needs to know."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests, embedded servers); the bound
    #: port is on :attr:`ServeServer.port` after startup.
    port: int = 7077
    geometry: str = "8x16"
    policy: str = "tree"
    #: Autotune each loaded graph's layout (plan-cache backed).
    tune: bool = False
    #: Maximum concurrently *executing* queries (admission limit).
    concurrency: int = 4
    #: Coalescing window; negative disables coalescing entirely.
    coalesce_window_s: float = DEFAULT_WINDOW_S
    coalesce_max_width: int = DEFAULT_MAX_WIDTH
    result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE
    #: Graphs to load at startup: suite names, optionally ``name@scale``.
    preload: Sequence[str] = field(default_factory=tuple)
    #: Default scale for suite loads that don't specify one.
    scale: int = 64

    @property
    def coalesce(self) -> bool:
        return self.coalesce_window_s >= 0


class QueryService:
    """Protocol-agnostic request handling (the server's brain).

    Owns the registry, the coalescer, the admission semaphore and the
    worker pool; :class:`ServeServer` is a thin framing shell around
    :meth:`handle`, and the smoke/loadgen harnesses can drive a service
    in-process without sockets.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.registry = GraphRegistry(
            geometry=config.geometry,
            policy=config.policy,
            tune=config.tune,
            result_cache_size=config.result_cache_size,
        )
        self.coalescer = Coalescer(
            window_s=max(config.coalesce_window_s, 0.0),
            max_width=config.coalesce_max_width,
        )
        self._semaphore = asyncio.Semaphore(max(1, int(config.concurrency)))
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(config.concurrency)),
            thread_name_prefix="repro-serve",
        )
        self._graph_locks: Dict[str, asyncio.Lock] = {}
        self._load_lock = asyncio.Lock()
        # Counters the ``stats`` op reports (and tests assert on).
        self.queries = 0
        self.errors = 0
        self.cache_hits = 0
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.in_flight = 0
        self.max_in_flight = 0
        # Always-on telemetry: latency histograms and sliding-window
        # load gauges live here regardless of REPRO_TRACE — the
        # stats/health admin surface reads this registry, the (optional)
        # tracer additionally gets spans/events for export.
        self.metrics = MetricsRegistry()
        self._started_s = time.monotonic()
        self.last_error: Optional[str] = None
        self._last_error_s: Optional[float] = None

    # ------------------------------------------------------------------
    def uptime_s(self) -> float:
        """Seconds since this service instance was constructed."""
        return time.monotonic() - self._started_s

    def last_error_age_s(self) -> Optional[float]:
        """Seconds since the most recent error (None if never erred)."""
        if self._last_error_s is None:
            return None
        return time.monotonic() - self._last_error_s

    def _note_error(self, exc: BaseException) -> None:
        """Record an error for health reporting (and count it)."""
        self.errors += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        self._last_error_s = time.monotonic()
        self.metrics.inc("serve.errors")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def handle(self, request: dict) -> dict:
        """One request dict in, one response dict out (never raises)."""
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "ping":
                return ok_response(request_id, {"pong": True})
            if op == "load":
                return ok_response(request_id, await self._op_load(request))
            if op == "list":
                return ok_response(request_id, self._op_list())
            if op == "stats":
                return ok_response(request_id, self.stats())
            if op == "health":
                return ok_response(request_id, self.health())
            if op == "dump":
                return ok_response(request_id, self._op_dump())
            if op == "query":
                return ok_response(request_id, await self._op_query(request))
            if op == "shutdown":
                return ok_response(request_id, {"stopping": True})
            raise ServeError(
                f"unknown op {op!r}; expected one of "
                "ping/load/list/stats/health/dump/query/shutdown"
            )
        except ReproError as exc:
            self._note_error(exc)
            if isinstance(exc, SimulationError):
                # A model-invariant failure on a long-running server:
                # preserve the last-N telemetry for the post-mortem.
                _flight_recorder().dump(f"serve:{type(exc).__name__}")
            return error_response(request_id, str(exc))
        except Exception as exc:  # a server must answer, not die
            self._note_error(exc)
            tracer = _obs_active()
            if tracer.enabled:
                tracer.event(
                    WarningEvent(
                        source="serve",
                        message=f"unexpected {type(exc).__name__}: {exc}",
                    )
                )
            return error_response(
                request_id, f"internal error: {type(exc).__name__}: {exc}"
            )

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    async def _op_load(self, request: dict) -> dict:
        name = request.get("graph")
        if not isinstance(name, str) or not name:
            raise ServeError("load needs a 'graph' suite name")
        scale = int(request.get("scale", self.config.scale))
        seed = int(request.get("seed", 42))
        loop = asyncio.get_running_loop()
        async with self._load_lock:  # one synthesis at a time, no dupes
            entry = await loop.run_in_executor(
                self._executor,
                lambda: self.registry.load(name, scale=scale, seed=seed),
            )
        return entry.meta()

    def _op_list(self) -> dict:
        return {
            "graphs": [
                self.registry.get(name).meta()
                for name in self.registry.names()
            ]
        }

    async def _op_query(self, request: dict) -> dict:
        t0 = time.perf_counter()
        entry = self.registry.get(request.get("graph"))
        algorithm = request.get("algorithm")
        if algorithm not in ALGORITHMS:
            raise ServeError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{'/'.join(ALGORITHMS)}"
            )
        params = request.get("params") or {}
        unknown = sorted(set(params) - set(_PARAM_KEYS[algorithm]))
        if unknown:
            raise ServeError(
                f"{algorithm} does not take params {unknown}; "
                f"accepted: {sorted(_PARAM_KEYS[algorithm])}"
            )
        source: Optional[int] = None
        if algorithm in _COALESCABLE:
            if request.get("source") is None:
                raise ServeError(f"{algorithm} queries need a 'source'")
            source = entry.graph.check_source(int(request["source"]))
        self.queries += 1
        entry.queries += 1
        tracer = _obs_active()
        with tracer.span(
            "serve.query",
            graph=entry.name,
            algorithm=algorithm,
            source=source,
        ) as span:
            response, width, cache_hit = await self._answer(
                entry, algorithm, source, params
            )
            latency_s = time.perf_counter() - t0
            # Always-on telemetry: bucketed latency (overall and per
            # algorithm) plus the coalesce-width window, tracer or not.
            self.metrics.inc("serve.queries")
            self.metrics.observe_hist(LATENCY_METRIC, latency_s)
            self.metrics.observe_hist(
                f"{LATENCY_METRIC}.{algorithm}", latency_s
            )
            self.metrics.gauge("serve.coalesce_width", width)
            event = ServeQueryEvent(
                graph=entry.name,
                algorithm=algorithm,
                source=source,
                coalesced_width=width,
                cache_hit=cache_hit,
                latency_s=latency_s,
                queue_depth=self.queue_depth,
            )
            if tracer.enabled:
                span.set(
                    coalesced_width=width,
                    cache_hit=cache_hit,
                    latency_s=latency_s,
                )
                tracer.metrics.observe("serve.latency_s", latency_s)
                tracer.metrics.observe("serve.coalesce_width", width)
                tracer.event(event)  # the tracer mirrors it into flight
            else:
                _flight_recorder().record_event(event)
        out = dict(response)
        out["cached"] = cache_hit
        out["coalesced_width"] = width
        out["latency_s"] = round(latency_s, 6)
        return out

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    async def _answer(self, entry, algorithm, source, params):
        """(response, coalesced width, cache hit) for one query."""
        cache_key = entry.results.key(algorithm, source, params)
        cached = entry.results.get(cache_key)
        if cached is not None:
            self.cache_hits += 1
            return cached, 0, True
        if self.config.coalesce and algorithm in _COALESCABLE:
            group = (entry.name, algorithm, entry.results.key(
                algorithm, None, params
            ))

            async def run_batch(sources: List[int]) -> List[dict]:
                return await self._run_traversal_batch(
                    entry, algorithm, sources, params
                )

            result = await self.coalescer.submit(group, source, run_batch)
            return result.response, result.width, False
        if algorithm in _COALESCABLE:
            (response,) = await self._run_traversal_batch(
                entry, algorithm, [source], params, batched=False
            )
            return response, 1, False
        response = await self._run_whole_graph(entry, algorithm, params)
        return response, 1, False

    async def _run_traversal_batch(
        self, entry, algorithm, sources, params, batched=True
    ):
        """Execute BFS/SSSP for ``sources``; one response per source.

        ``batched=False`` (coalescing off) runs the plain single-source
        driver — the baseline the load generator measures against.
        """
        from ..graphs import bfs, bfs_multi, sssp, sssp_multi

        max_iters = params.get("max_iters")
        cap = None if max_iters is None else int(max_iters)

        def work():
            if batched and len(sources) >= 1:
                driver = bfs_multi if algorithm == "bfs" else sssp_multi
                return driver(
                    entry.graph, sources, runtime=entry.runtime,
                    max_iters=cap,
                )
            driver = bfs if algorithm == "bfs" else sssp
            return driver(
                entry.graph, sources[0], runtime=entry.runtime, max_iters=cap
            )

        run = await self._admitted(entry, work)
        entry.batches += 1
        entry.batched_queries += len(sources)
        responses = []
        for j, src in enumerate(sources):
            if batched:
                values = run.values[:, j]
                converged = run.column_converged[j]
            else:
                values = run.values
                converged = run.converged
            response = {
                "graph": entry.name,
                "algorithm": algorithm,
                "source": int(src),
                "values": values.tolist(),
                "iterations": int(run.iterations),
                "cycles": float(run.total_cycles),
                "converged": bool(converged),
            }
            entry.results.put(
                entry.results.key(algorithm, int(src), params), response
            )
            responses.append(response)
        return responses

    async def _run_whole_graph(self, entry, algorithm, params):
        """Execute a PageRank/CF query (cached, never coalesced)."""
        from ..graphs import collaborative_filtering, pagerank

        def work():
            if algorithm == "pagerank":
                return pagerank(entry.graph, runtime=entry.runtime, **params)
            return collaborative_filtering(
                entry.graph, runtime=entry.runtime, **params
            )

        run = await self._admitted(entry, work)
        entry.batches += 1
        entry.batched_queries += 1
        response = {
            "graph": entry.name,
            "algorithm": algorithm,
            "source": None,
            "values": run.values.tolist(),
            "iterations": int(run.iterations),
            "cycles": float(run.total_cycles),
            "converged": bool(run.converged),
        }
        entry.results.put(
            entry.results.key(algorithm, None, params), response
        )
        return response

    async def _admitted(self, entry: LoadedGraph, work):
        """Admission + per-graph serialisation + worker-thread execution."""
        tracer = _obs_active()
        self.queue_depth += 1
        self.max_queue_depth = max(self.max_queue_depth, self.queue_depth)
        self.metrics.gauge("serve.queue_depth", self.queue_depth)
        if tracer.enabled:
            tracer.metrics.observe("serve.queue_depth", self.queue_depth)
        try:
            await self._semaphore.acquire()
        finally:
            self.queue_depth -= 1
        try:
            async with self._lock_for(entry.name):
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
                self.metrics.gauge("serve.in_flight", self.in_flight)
                try:
                    loop = asyncio.get_running_loop()
                    # The copied context carries the open query span, so
                    # the driver's spans nest under the query running it.
                    return await loop.run_in_executor(
                        self._executor, contextvars.copy_context().run, work
                    )
                finally:
                    self.in_flight -= 1
        finally:
            self._semaphore.release()

    def _lock_for(self, name: str) -> asyncio.Lock:
        lock = self._graph_locks.get(name)
        if lock is None:
            lock = self._graph_locks[name] = asyncio.Lock()
        return lock

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``stats`` op payload (see :class:`.admin.StatsPayload`)."""
        return stats_wire(self)

    def health(self) -> dict:
        """The ``health`` op payload (see :class:`.admin.HealthPayload`)."""
        return health_wire(self)

    def _op_dump(self) -> dict:
        """Dump the flight ring on operator request; report the path."""
        flight = _flight_recorder()
        path = flight.dump("serve:admin-dump")
        return {
            "path": path,
            "retained": len(flight),
            "enabled": flight.enabled,
        }

    def close(self) -> None:
        self._executor.shutdown(wait=False)


class ServeServer:
    """Socket shell: frames in, :class:`QueryService` answers out."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.service = QueryService(self.config)
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for spec in self.config.preload:
            name, _, scale = spec.partition("@")
            await self.service.handle(
                {
                    "op": "load",
                    "graph": name,
                    "scale": int(scale) if scale else self.config.scale,
                }
            )
        return self.port

    async def serve_until_stopped(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._server is None:
            await self.start()
        try:
            await self._stopping.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            self.service.close()

    def stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    # ------------------------------------------------------------------
    async def _on_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ServeError as exc:
                    # Framing is broken: answer once, then hang up.
                    await write_frame(writer, error_response(None, str(exc)))
                    break
                if request is None:
                    break
                response = await self.service.handle(request)
                await write_frame(writer, response)
                if request.get("op") == "shutdown" and response.get("ok"):
                    self.stop()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-conversation; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


# ----------------------------------------------------------------------
# Embedded servers (tests, smoke, loadgen)
# ----------------------------------------------------------------------
#: How long :func:`run_in_thread` waits for the event loop to bind.
_STARTUP_TIMEOUT_S = 30.0


class ServerHandle:
    """A server running on a background thread, stoppable from outside."""

    def __init__(self, thread, loop, server: ServeServer, port: int):
        self._thread = thread
        self._loop = loop
        self.server = server
        self.port = port

    @property
    def service(self) -> QueryService:
        return self.server.service

    def stop(self, join_timeout_s: float = _STARTUP_TIMEOUT_S) -> None:
        """Signal shutdown and wait for the server thread to exit."""
        try:
            self._loop.call_soon_threadsafe(self.server.stop)
        except RuntimeError:
            pass  # loop already closed
        self._thread.join(timeout=join_timeout_s)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def run_in_thread(config: Optional[ServeConfig] = None) -> ServerHandle:
    """Start a :class:`ServeServer` on its own thread and event loop.

    Blocks until the socket is bound (so ``handle.port`` is usable
    immediately, including for ``port=0`` ephemeral binds).  Startup
    failures re-raise in the caller.
    """
    import threading

    started = threading.Event()
    state: dict = {}

    def runner() -> None:
        async def main() -> None:
            server = ServeServer(config)
            state["server"] = server
            state["loop"] = asyncio.get_running_loop()
            try:
                state["port"] = await server.start()
            except BaseException as exc:
                state["error"] = exc
                started.set()
                return
            started.set()
            await server.serve_until_stopped()

        asyncio.run(main())

    thread = threading.Thread(
        target=runner, name="repro-serve-loop", daemon=True
    )
    thread.start()
    if not started.wait(timeout=_STARTUP_TIMEOUT_S):
        raise ServeError("server failed to start within the startup timeout")
    if "error" in state:
        raise state["error"]
    return ServerHandle(thread, state["loop"], state["server"], state["port"])
