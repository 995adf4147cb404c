"""The benchmark's workloads, one per child process of ``run.py``.

    python benchmarks/e2e/workloads.py --workload traverse --seed 0 \\
        --seconds 22 --trace 0 [--smoke]

``run.py`` starts this script with a fresh ``REPRO_CACHE_DIR``,
``REPRO_ARTIFACTS_DIR`` and ``TMPDIR`` and a pinned environment; it
prints progress on stderr and one JSON object as the last line of
stdout.

Each workload sets up from an empty workload cache several times (the
median is ``setup_s``), then measures for ``--seconds``.  Every timed
block is followed by a :class:`HostProbe`, and times are reported at
the probe's reference speed.  Graphs and matrices come from the suite's
fixed generation seeds; ``--seed`` picks only traversal sources,
frontier seeds and served sources.  Every workload checks its outputs
(its code paths against each other, each round against the first) and
afterwards runs a *canonical* check on fixed inputs whose digests and
modeled cycles ``run.py`` compares against ``golden.json``.

With ``--trace 1`` the first third of the window runs untraced and the
rest under :class:`layers.LayerTracer`; layer metrics are normalised
per unit of work (a round, or a served request).
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.experiments.common as suite
import repro.experiments.fig4 as fig4
import repro.graphs as drivers
import repro.serve.protocol as protocol
from repro.cluster import ShardedRuntime
from repro.core import CoSparseRuntime
from repro.perf import counters as perf_counters
from repro.serve.server import QueryService, ServeConfig

from layers import LayerTracer

#: Process pools and service executors never exceed this many workers:
#: the reference host has 2 cores, and all load comes from one process.
POOL_WORKERS = 2

#: Hardware shape of every runtime (the drivers' default).
GEOMETRY = "8x16"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Share of a traced run's window that runs untraced (the baseline
#: ``trace.overhead_frac`` is measured against).
UNTRACED_SHARE = 1.0 / 3.0

#: Problem messages kept in the result (the count is always exact).
MAX_PROBLEMS = 20


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def digest(values) -> str:
    """SHA-256 over an array's dtype, shape and bytes."""
    arr = np.ascontiguousarray(values)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def run_record(run) -> dict:
    """Golden-file entry for one driver run (single-node or sharded)."""
    return {
        "sha256": digest(run.values),
        "cycles": float(run.total_cycles),
        "sw_switches": int(run.log.sw_switches),
        "hw_switches": int(run.log.hw_switches),
    }


def fresh_cache(path: str) -> None:
    """Point ``REPRO_CACHE_DIR`` at a new empty directory."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    os.environ["REPRO_CACHE_DIR"] = path


@contextlib.contextmanager
def env(name: str, value: str):
    saved = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if saved is None:
            del os.environ[name]
        else:
            os.environ[name] = saved


class HostProbe:
    """Fixed work, sharing no code with the repository, that measures how
    fast the host runs at the moment.

    The reference host is a shared virtual machine whose cores run tens
    of percent slower or faster for minutes at a time, while the steal
    time stays near zero (README.md, "Host speed").  Every timed block
    of work is bracketed by two probes; its wall time times ``REF_S``
    over their mean is its time *at reference speed*, which holds still
    while the host drifts.  The probe mixes an interpreter loop, a sort
    and a random gather from a 64 MiB table, as the workloads mix
    Python overhead, numpy kernels and memory traffic.
    """

    #: Probe time that defines the reference speed.
    REF_S = 0.060

    def __init__(self):
        rng = np.random.default_rng(0)
        self.sortable = rng.random(1 << 20)
        self.table = rng.random(8 << 20)
        self.index = rng.integers(0, self.table.size, 1 << 20)
        self.times = [self._time()]

    def _time(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * 3 % 7
        np.sort(self.sortable)
        self.table[self.index].sum()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Probe again; return the factor from wall time since the last
        probe to time at reference speed."""
        self.times.append(self._time())
        return 2 * self.REF_S / (self.times[-2] + self.times[-1])


@dataclass
class Window:
    """What one measurement window produced.  Times are at the probe's
    reference speed unless named wall."""

    probe: HostProbe
    #: Wraps every phase in a ``harness`` span in the traced run.
    tracer: Optional[LayerTracer] = None
    #: Seconds of each unit of work (round or open-loop request).
    unit_s: List[float] = field(default_factory=list)
    #: Wall seconds of the same units.
    wall_s: List[float] = field(default_factory=list)
    #: Elementary operations completed per second.
    ops_per_s: float = 0.0
    units: int = 0
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    #: Per-phase seconds, for the breakdown lines.
    phases: Dict[str, List[float]] = field(default_factory=dict)
    #: Workload-specific per-layer numbers.
    extras: Dict[str, float] = field(default_factory=dict)
    #: (wall, reference-speed) seconds of the current unit's phases.
    _open: List[float] = field(default_factory=lambda: [0.0, 0.0])

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time the block as a part of the current unit, then probe."""
        span = self.tracer.span("harness") if self.tracer else None
        t0 = time.perf_counter()
        with span or contextlib.nullcontext():
            yield
        wall = time.perf_counter() - t0
        seconds = wall * self.probe.scale()
        self.phases.setdefault(name, []).append(seconds)
        self._open[0] += wall
        self._open[1] += seconds

    def end_unit(self) -> None:
        """Close the current unit: its time is the sum of its phases."""
        self.add_unit(self._open[0], self._open[1] / self._open[0])
        self._open = [0.0, 0.0]

    def add_unit(self, wall: float, scale: float) -> None:
        """Record a unit's wall seconds and its probe scale factor."""
        self.wall_s.append(wall)
        self.unit_s.append(wall * scale)


class Workload:
    """Round-based workload: a seeded round repeats until time is up."""

    name = ""
    #: Key of this workload's canonical records in ``golden.json``.
    family = ""
    #: Elementary operations per round (traversals, iterations, tasks).
    ops_per_round = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.next_round = 0

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the current set-up holds (pools, loops)."""

    def prepare(self, r: int) -> None:
        """Untimed work before round ``r``."""

    def round(self, r: int, window: Window) -> List[str]:
        """Run round ``r`` with all its timed work in ``window.phase``
        blocks; return mismatch messages."""
        raise NotImplementedError

    def measure(self, seconds: float, probe: HostProbe, tracer=None) -> Window:
        window = Window(probe, tracer)
        start = time.perf_counter()
        while window.units == 0 or time.perf_counter() - start < seconds:
            r = self.next_round
            self.next_round += 1
            self.prepare(r)
            window.problems += self.round(r, window)
            window.end_unit()
            window.units += 1
            window.attempted += self.ops_per_round
        window.ops_per_s = window.attempted / sum(window.unit_s)
        return window

    def verify(self) -> List[str]:
        """Checks that run after measuring (untimed)."""
        return []

    def canonical(self) -> Dict[str, dict]:
        """Golden records from fixed inputs on fresh runtimes."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class Traverse(Workload):
    """Single-source BFS and SSSP plus one 8-source ``bfs_multi`` per round.

    Frontier density sweeps sparse -> dense -> sparse, so the OP kernel,
    IP/OP switches and per-iteration glue dominate; ``bfs_multi`` runs
    the ``spmv_batch`` path.
    """

    name = family = "traverse"
    GRAPH, SCALE = "pokec", 64
    MULTI = 8
    ops_per_round = 2 + MULTI

    def setup(self) -> None:
        graph = suite.table3_graph(self.GRAPH, scale=self.SCALE)
        self.candidates = np.flatnonzero(graph.out_degrees() > 0)
        self.runtime = CoSparseRuntime(graph.operand, GEOMETRY)
        drivers.bfs(graph, int(self.candidates[0]), runtime=self.runtime)
        self.graph = graph

    def sources(self, rng) -> List[int]:
        picks = rng.choice(self.candidates, self.MULTI, replace=False)
        return [int(v) for v in picks]

    def round(self, r, window):
        g, rt = self.graph, self.runtime
        srcs = self.sources(self.rng(r))
        with window.phase("single_pair"):
            single = drivers.bfs(g, srcs[0], runtime=rt)
            drivers.sssp(g, srcs[0], runtime=rt)
        with window.phase("multi"):
            multi = drivers.bfs_multi(g, srcs, runtime=rt)
        if np.array_equal(multi.values[:, 0], single.values):
            return []
        return [f"bfs_multi column 0 differs from bfs({srcs[0]})"]

    def canonical(self):
        srcs = self.sources(np.random.default_rng([0, 0]))
        rt = CoSparseRuntime(self.graph.operand, GEOMETRY)
        return {
            "bfs": run_record(drivers.bfs(self.graph, srcs[0], runtime=rt)),
            "sssp": run_record(drivers.sssp(self.graph, srcs[0], runtime=rt)),
            "bfs_multi": run_record(
                drivers.bfs_multi(self.graph, srcs, runtime=rt)
            ),
        }


# ----------------------------------------------------------------------
class PageRank(Workload):
    """PageRank (``max_iters=5``) on three runtimes, one run each per round.

    Every iteration is a dense frontier, so the IP kernel dominates.  A
    round runs the same input single-node, on ``ShardedRuntime`` K=4
    mesh/nnz with its shards one after another (``jobs=1``), and on the
    same K=4 runtime with its shards on a 2-worker pool; the three take
    similar shares of a round.  Starting the pool, publishing the shards
    and a 2-iteration warm-up of each runtime count toward set-up.
    PageRank has no source, so the seed changes nothing here.  Each
    round's sharded and pooled ranks must equal its single-node ranks,
    every round's must equal the first round's, and those must equal a
    fresh single-node run's.
    """

    name = family = "pagerank"
    GRAPH, SCALE = "pokec", 64
    NODES = 4
    ITERS = 5
    WARMUP_ITERS = 2
    PATHS = ("single", "sharded", "pooled")
    ops_per_round = len(PATHS) * ITERS

    def _single(self) -> CoSparseRuntime:
        return CoSparseRuntime(self.graph.operand, GEOMETRY)

    def _sharded(self, jobs: int) -> ShardedRuntime:
        return ShardedRuntime(
            self.graph.operand,
            self.NODES,
            GEOMETRY,
            topology="mesh",
            partition="nnz",
            jobs=jobs,
        )

    def setup(self) -> None:
        self.graph = suite.table3_graph(self.GRAPH, scale=self.SCALE)
        self.runtimes = {
            "single": self._single(),
            "sharded": self._sharded(1),
            "pooled": self._sharded(POOL_WORKERS).__enter__(),
        }
        for rt in self.runtimes.values():
            drivers.pagerank(self.graph, runtime=rt, max_iters=self.WARMUP_ITERS)
        self.first = None

    def close(self) -> None:
        self.runtimes["pooled"].close()

    def round(self, r, window):
        values = {}
        for path in self.PATHS:
            with window.phase(path):
                run = drivers.pagerank(
                    self.graph, runtime=self.runtimes[path], max_iters=self.ITERS
                )
            values[path] = run.values
            if path == "sharded":
                window.extras["cluster.network_share"] = (
                    run.log.total_network_cycles / run.log.total_cycles
                )
        problems = [
            f"round {r} {path} ranks differ from single-node ranks"
            for path in self.PATHS[1:]
            if not np.array_equal(values[path], values["single"])
        ]
        if self.first is None:
            self.first = values["single"]
        elif not np.array_equal(values["single"], self.first):
            problems.append(f"round {r} ranks differ from round 0")
        return problems

    def verify(self):
        single = drivers.pagerank(
            self.graph, runtime=self._single(), max_iters=self.ITERS
        )
        if np.array_equal(self.first, single.values):
            return []
        return ["ranks differ from a fresh single-node run"]

    def canonical(self):
        single = drivers.pagerank(
            self.graph, runtime=self._single(), max_iters=self.ITERS
        )
        sharded = drivers.pagerank(
            self.graph, runtime=self._sharded(1), max_iters=self.ITERS
        )
        return {"single": run_record(single), "sharded": run_record(sharded)}


# ----------------------------------------------------------------------
class Sweep(Workload):
    """Fig. 4 passes through the scheduler: serial, cold and warm.

    A figure driver: its time goes to the kernels and pricing, the
    scheduler, shared memory (the scale-16 matrices are above the 1 MiB
    shipping threshold) and the pricing cache.  A round runs one pass
    serially with the pricing cache off, one on a 2-worker pool into
    the emptied cache (it *writes*) and ``WARM_PASSES`` on a 2-worker
    pool from the cache the cold pass filled (they *read*), so the three
    uses take similar shares of a round.  Emptying the cache before a
    round is untimed.  The seed picks the run's frontier seed; every
    pass prices the same grid, so every pass's rows must equal the
    round's serial rows, and those must equal the first round's.
    """

    name = family = "sweep"
    SCALE = 16
    MATRICES = (0, 1, 2, 3)
    GEOMETRIES = fig4.QUICK_GEOMETRIES
    CANONICAL_FRONTIER_SEED = 7
    WARM_PASSES = 3

    @property
    def ops_per_round(self) -> int:
        grid = len(self.MATRICES) * len(self.GEOMETRIES) * len(fig4.FIG4_DENSITIES)
        return 2 * grid * (2 + self.WARM_PASSES)

    def setup(self) -> None:
        for index in self.MATRICES:
            suite.fig4_matrix(index, scale=self.SCALE)
        # First pool: pays the multiprocessing imports and first fork.
        self._run(self.MATRICES[:1], self.CANONICAL_FRONTIER_SEED, POOL_WORKERS)
        self.frontier_seed = int(self.rng(0).integers(1 << 30))
        self.first = None

    def _run(self, matrices, frontier_seed, jobs):
        return fig4.run_fig4(
            scale=self.SCALE,
            geometries=self.GEOMETRIES,
            matrices=matrices,
            seed=frontier_seed,
            jobs=jobs,
        ).rows

    def _pricing_dir(self) -> str:
        return os.path.join(os.environ["REPRO_CACHE_DIR"], "pricing")

    def prepare(self, r):
        shutil.rmtree(self._pricing_dir(), ignore_errors=True)

    def _pass(self, window, phase, jobs):
        with window.phase(phase):
            return self._run(self.MATRICES, self.frontier_seed, jobs)

    def round(self, r, window):
        with env("REPRO_PRICING_CACHE", "0"):
            serial = self._pass(window, "serial", 1)
        passes = [("cold", self._pass(window, "cold", POOL_WORKERS))]
        for _ in range(self.WARM_PASSES):
            passes.append(("warm", self._pass(window, "warm", POOL_WORKERS)))
        problems = [
            f"round {r} {phase} rows differ from serial rows"
            for phase, rows in passes
            if rows != serial
        ]
        if self.first is None:
            self.first = serial
        elif serial != self.first:
            problems.append(f"round {r} rows differ from round 0")
        return problems

    def canonical(self):
        with env("REPRO_PRICING_CACHE", "0"):
            rows = self._run(self.MATRICES[:1], self.CANONICAL_FRONTIER_SEED, 1)
        cycles = np.array([[row["ip_cycles"], row["op_cycles"]] for row in rows])
        return {
            "fig4_matrix0": {
                "sha256": digest(cycles),
                "cycles": float(cycles.sum()),
                "sw_switches": 0,
                "hw_switches": 0,
            }
        }


# ----------------------------------------------------------------------
class Serve(Workload):
    """An in-process query service under a bursty open and closed loop.

    Requests come in bursts dealt from a deck: per graph one BFS and
    one SSSP burst of each width 1-4 (60% of a burst on its trending
    source), one PageRank request with fixed parameters (a repeated
    dashboard query: the result cache answers all but the first) and
    one CF request with a fresh seed (always executed).  40 of the
    deck's 44 requests are traversals.  The deck's make-up and each
    cycle's burst order are the same for every seed, which picks only
    the sources (vertices with an out-edge) and CF seeds, so the
    latency distribution does not depend on the seed.  Open loop at
    ``RATE_QPS`` at reference speed, one deck cycle at a time (latency
    timed from each request's due time); its schedule stretches with
    the host's slowdown, so the service's utilisation does not drift
    with the host.  Then a closed loop with ``OUTSTANDING`` requests in
    flight (capacity) in ``CLOSED_SEGMENT_S`` segments.  The host probe
    runs between cycles and segments, while nothing is in flight.
    Every response goes through ``protocol.encode_frame``.
    """

    name = family = "serve"
    GRAPHS = ("twitter", "vsp")
    SCALE = 32
    RATE_QPS = 16.0
    OUTSTANDING = 8
    OPEN_SHARE = 0.6
    CLOSED_SEGMENT_S = 2.0
    HOT_SHARE = 0.6
    WIDTHS = (1, 2, 3, 4)
    PR = {"max_iters": 5}
    VERIFY_SHARE = 0.25
    #: The open loop's tail is reported at the highest of these
    #: percentiles with at least ``TAIL_BEYOND`` samples above it.
    TAIL_PERCENTILES = (99, 95, 90, 80, 50)
    TAIL_BEYOND = 10
    #: Latency limit on the open loop's p95 (ms).
    P95_LIMIT_MS = 1000.0

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.service = self.loop.run_until_complete(self._start())
        self.served: List[tuple] = []
        self.cycles = 0

    async def _start(self) -> QueryService:
        service = QueryService(
            ServeConfig(port=0, concurrency=POOL_WORKERS, scale=self.SCALE)
        )
        self.keys, self.sources = {}, {}
        for name in self.GRAPHS:
            response = await service.handle(
                {"op": "load", "graph": name, "scale": self.SCALE}
            )
            if not response["ok"]:
                raise RuntimeError(f"load {name}: {response['error']}")
            key = self.keys[name] = response["result"]["name"]
            graph = service.registry.get(key).graph
            self.sources[name] = np.flatnonzero(graph.out_degrees() > 0)
        for name in self.GRAPHS:
            for algorithm, extra in (
                ("bfs", {"source": 0}),
                ("sssp", {"source": 0}),
                ("pagerank", {"params": {"max_iters": 1}}),
                ("cf", {"params": {"iterations": 1}}),
            ):
                await service.handle(self._request(name, algorithm, **extra))
        return service

    def close(self) -> None:
        self.service.close()
        self.loop.close()

    def _request(self, graph, algorithm, source=None, params=None) -> dict:
        request = {"op": "query", "graph": self.keys[graph], "algorithm": algorithm}
        if source is not None:
            request["source"] = source
        if params:
            request["params"] = params
        return request

    def _deck(self, rng) -> List[List[dict]]:
        """The next deck cycle.  The n-th cycle's burst order and which
        requests of a burst repeat its trending source are the same for
        every seed; ``rng`` picks the sources and CF seeds."""
        self.cycles += 1
        shape = np.random.default_rng(self.cycles)
        bursts = []
        for graph in self.GRAPHS:
            sources = self.sources[graph]
            for algorithm in ("bfs", "sssp"):
                for width in self.WIDTHS:
                    trending = int(rng.choice(sources))
                    bursts.append(
                        [
                            self._request(
                                graph,
                                algorithm,
                                trending
                                if shape.random() < self.HOT_SHARE
                                else int(rng.choice(sources)),
                            )
                            for _ in range(width)
                        ]
                    )
            cf = {"iterations": 2, "k": 4, "seed": int(rng.integers(1 << 20))}
            bursts.append([self._request(graph, "pagerank", params=self.PR)])
            bursts.append([self._request(graph, "cf", params=cf)])
        return [bursts[i] for i in shape.permutation(len(bursts))]

    async def _one(self, request: dict, due: float):
        response = await self.service.handle(request)
        frame = protocol.encode_frame(response)
        latency = time.monotonic() - due
        ok = bool(response.get("ok"))
        self.served.append((request, frame, ok))
        return latency if ok else float("inf")

    async def _open_loop(self, bursts, dilation: float):
        """One deck cycle's bursts due ``width / RATE_QPS`` apart in
        reference time, each stretched by ``dilation`` (wall seconds per
        reference second), so the offered load relative to the host's
        current speed is exact; returns once every request is answered."""
        start = time.monotonic()
        tasks, late, offset = [], [], 0.0
        for burst in bursts:
            delay = start + offset - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.monotonic() - (start + offset))
            tasks += [
                asyncio.ensure_future(self._one(req, start + offset))
                for req in burst
            ]
            offset += len(burst) / self.RATE_QPS * dilation
        return await asyncio.gather(*tasks), late

    async def _closed_loop(self, rng, seconds: float):
        backlog: collections.deque = collections.deque()
        latencies: List[float] = []
        start = time.monotonic()
        end = start + seconds

        async def client():
            while time.monotonic() < end:
                if not backlog:
                    backlog.extend(r for burst in self._deck(rng) for r in burst)
                request = backlog.popleft()
                latencies.append(await self._one(request, time.monotonic()))

        await asyncio.gather(*(client() for _ in range(self.OUTSTANDING)))
        return latencies, time.monotonic() - start

    def tail(self, latencies) -> tuple:
        """``(q, q-th percentile)`` for the highest listed ``q`` with at
        least ``TAIL_BEYOND`` samples above it (failures are +inf)."""
        n = len(latencies)
        q = next(
            (
                p
                for p in self.TAIL_PERCENTILES
                if n * (100 - p) / 100 >= self.TAIL_BEYOND
            ),
            self.TAIL_PERCENTILES[-1],
        )
        return q, float(np.percentile(latencies, q))

    def measure(self, seconds, probe, tracer=None):
        window = Window(probe)
        rng = self.rng(self.next_round)
        self.next_round += 1
        service = self.service
        queries0, hits0 = service.queries, service.cache_hits
        widths0 = len(service.coalescer.widths)
        service.max_queue_depth = 0
        # Whole deck cycles and segments, so every seed gets the same
        # burst sequence, cut at the same point.
        deck_requests = len(self.GRAPHS) * (2 * sum(self.WIDTHS) + 2)
        cycles = round(seconds * self.OPEN_SHARE * self.RATE_QPS / deck_requests)
        late, closed_lat, rates = [], [], []
        for _ in range(max(1, cycles)):
            dilation = probe.times[-1] / probe.REF_S
            latencies, cycle_late = self.loop.run_until_complete(
                self._open_loop(self._deck(rng), dilation)
            )
            scale = probe.scale()
            for latency in latencies:
                window.add_unit(latency, scale)
            late += cycle_late
        segments = round(seconds * (1 - self.OPEN_SHARE) / self.CLOSED_SEGMENT_S)
        for _ in range(max(1, segments)):
            latencies, wall = self.loop.run_until_complete(
                self._closed_loop(rng, self.CLOSED_SEGMENT_S)
            )
            rates.append(len(latencies) / (wall * probe.scale()))
            closed_lat += latencies
        open_lat = window.wall_s
        window.units = window.attempted = len(open_lat) + len(closed_lat)
        window.ops_per_s = statistics.median(rates)
        failed = sum(1 for x in open_lat + closed_lat if x == float("inf"))
        window.problems += ["a request failed"] * failed
        q, tail_s = self.tail(window.unit_s)
        window.phases[f"open_p{q}"] = [tail_s]
        p95_ms = float(np.percentile(open_lat, 95)) * 1e3
        if p95_ms > self.P95_LIMIT_MS:
            window.problems.append(
                f"open-loop p95 {p95_ms:.1f} ms exceeds {self.P95_LIMIT_MS:g} ms"
            )
        widths = service.coalescer.widths[widths0:]
        queries = service.queries - queries0
        window.extras.update(
            {
                "serve.coalesce_width_mean": (
                    float(np.mean(widths)) if widths else 0.0
                ),
                "serve.cache_hit_ratio": (
                    (service.cache_hits - hits0) / queries if queries else 0.0
                ),
                "serve.queue_depth_max": float(service.max_queue_depth),
                "serve.gen_late_ms": max(late) * 1e3,
            }
        )
        return window

    def _direct(self, request: dict, memo: dict):
        key = json.dumps(request, sort_keys=True)
        if key not in memo:
            graph = self.service.registry.get(request["graph"]).graph
            algorithm = request["algorithm"]
            params = request.get("params") or {}
            if algorithm in ("bfs", "sssp"):
                fn = getattr(drivers, algorithm)
                run = fn(graph, request["source"], **params)
            elif algorithm == "pagerank":
                run = drivers.pagerank(graph, **params)
            else:
                run = drivers.collaborative_filtering(graph, **params)
            memo[key] = run
        return memo[key]

    def verify(self):
        """A seeded quarter of answered requests vs direct driver calls."""
        answered = [(req, frame) for req, frame, ok in self.served if ok]
        if not answered:
            return ["no request was answered"]
        rng = np.random.default_rng([self.seed, 1 << 20])
        n = max(1, int(len(answered) * self.VERIFY_SHARE))
        memo: dict = {}
        problems = []
        for i in sorted(rng.choice(len(answered), size=n, replace=False)):
            request, frame = answered[int(i)]
            served = protocol.decode_payload(frame[4:])["result"]["values"]
            direct = self._direct(request, memo).values.tolist()
            if served != direct:
                problems.append(
                    f"served {request['algorithm']} on {request['graph']} "
                    f"(source={request.get('source')}) differs from the "
                    "direct driver call"
                )
        log(f"serve: verified {n} of {len(answered)} answers")
        return problems

    def canonical(self):
        out = {}
        for name in self.GRAPHS:
            graph = self.service.registry.get(self.keys[name]).graph
            source = int(np.flatnonzero(graph.out_degrees() > 0)[0])
            out[f"{name}.bfs"] = run_record(drivers.bfs(graph, source))
            out[f"{name}.sssp"] = run_record(drivers.sssp(graph, source))
            out[f"{name}.pagerank"] = run_record(
                drivers.pagerank(graph, max_iters=5)
            )
            out[f"{name}.cf"] = run_record(
                drivers.collaborative_filtering(graph, iterations=2, k=4)
            )
        return out


WORKLOADS = {w.name: w for w in (Traverse, PageRank, Sweep, Serve)}


# ----------------------------------------------------------------------
def layer_metrics(tracer, perf0, perf1, units, extras, canonical, overhead):
    """Every per-layer metric except the hygiene counters run.py adds."""
    u = max(units, 1)
    delta = {k: perf1[k] - perf0[k] for k in perf0 if k != "wall_seconds"}
    out = {}
    for layer in (
        "spmv.ip",
        "spmv.op",
        "spmv.ip_batch",
        "spmv.op_batch",
        "core.spmv",
        "core.spmv_batch",
        "core.decide",
        "graphs.driver",
        "hardware.run",
        "hardware.evaluate",
        "experiments.driver",
        "parallel.map",
        "cluster.spmv",
    ):
        out[f"{layer}.self_s"] = tracer.self_s[layer] / u
        out[f"{layer}.calls"] = tracer.calls[layer] / u
    out["cluster.exchange.self_s"] = tracer.self_s["cluster.exchange"] / u
    out["harness.self_s"] = tracer.self_s["harness"] / u
    out["graphs.iterations"] = tracer.counts["graphs.iterations"] / u
    out["parallel.cache.get_s"] = tracer.total_s["parallel.cache.get"] / u
    out["parallel.cache.put_s"] = tracer.total_s["parallel.cache.put"] / u
    out["serve.handle_s"] = tracer.total_s["serve.handle"] / u
    out["serve.encode_s"] = tracer.total_s["serve.encode"] / u
    out["serve.exec_s"] = (
        sum(
            seconds
            for (layer, thread), seconds in tracer.by_thread.items()
            if layer == "graphs.driver" and thread.startswith("repro-serve")
        )
        / u
    )
    executed = delta["kernel_executions"]
    attempts = executed + delta["kernel_profile_only"]
    lookups = delta["pricing_cache_hits"] + delta["pricing_cache_misses"]
    out.update(
        {
            "spmv.batched_columns": delta["kernel_batched_columns"] / u,
            "spmv.probe_discarded": delta["kernel_probe_discarded"] / u,
            "spmv.useful_ratio": executed / attempts if attempts else 1.0,
            "parallel.tasks": delta["pricing_tasks"] / u,
            "parallel.fallbacks": delta["pricing_fallbacks"] / u,
            "parallel.cache_hit_ratio": (
                delta["pricing_cache_hits"] / lookups if lookups else 0.0
            ),
            "cluster.exchange_bytes": delta["cluster_exchange_bytes"] / u,
            "cluster.network_share": 0.0,
            "serve.coalesce_width_mean": 0.0,
            "serve.cache_hit_ratio": 0.0,
            "serve.queue_depth_max": 0.0,
            "serve.gen_late_ms": 0.0,
        }
    )
    out.update(extras)
    out["modeled.cycles"] = sum(r["cycles"] for r in canonical.values())
    out["modeled.sw_switches"] = sum(r["sw_switches"] for r in canonical.values())
    out["modeled.hw_switches"] = sum(r["hw_switches"] for r in canonical.values())
    out["trace.overhead_frac"] = overhead
    return out


def run(workload_name, seed, seconds, trace, smoke) -> dict:
    workload = WORKLOADS[workload_name](seed)
    tracer = None
    if trace:
        tracer = LayerTracer()
        tracer.install()
        if tracer.absent:
            log(f"absent patch targets: {', '.join(tracer.absent)}")
    cache_base = os.environ["REPRO_CACHE_DIR"]
    probe = HostProbe()
    setup = Window(probe)
    for i in range(1 if smoke else SETUP_REPS):
        if i:
            workload.close()
        fresh_cache(os.path.join(cache_base, f"setup-{i}"))
        with setup.phase("setup"):
            workload.setup()
        setup.end_unit()
    log(f"{workload_name}: set-up {[round(s, 3) for s in setup.wall_s]} s wall")

    windows = []
    layers = None
    if not trace:
        windows.append(workload.measure(seconds, probe))
    else:
        generate_s = tracer.total_s["workloads.generate"] / len(setup.wall_s)
        tracer.enabled = False
        windows.append(workload.measure(seconds * UNTRACED_SHARE, probe))
        tracer.reset()
        tracer.enabled = True
        perf0 = perf_counters.snapshot()
        windows.append(
            workload.measure(seconds * (1 - UNTRACED_SHARE), probe, tracer)
        )
        perf1 = perf_counters.snapshot()
        tracer.enabled = False
        windows[-1].problems += tracer.thread_violations()
    measured = windows[-1]
    problems = [p for w in windows for p in w.problems]
    problems += workload.verify()
    canonical = workload.canonical()
    workload.close()
    if trace:
        overhead = windows[0].ops_per_s / measured.ops_per_s - 1.0
        layers = layer_metrics(
            tracer,
            perf0,
            perf1,
            measured.units,
            {**measured.extras, "workloads.generate_s": generate_s},
            canonical,
            overhead,
        )
        tracer.uninstall()
    p50 = statistics.median(measured.unit_s)
    wall_p50 = statistics.median(measured.wall_s)
    return {
        "workload": workload_name,
        "family": workload.family,
        "seed": seed,
        "trace": int(trace),
        "attempted": sum(w.attempted for w in windows),
        "failed": len(problems),
        "problems": problems[:MAX_PROBLEMS],
        "absent": tracer.absent if tracer else [],
        "e2e": {
            "p50_ms": p50 * 1e3 if np.isfinite(p50) else 1e9,
            "ops_per_s": measured.ops_per_s,
            "setup_s": statistics.median(setup.unit_s),
        },
        "wall": {
            "p50_ms": wall_p50 * 1e3 if np.isfinite(wall_p50) else 1e9,
            "setup_s": statistics.median(setup.wall_s),
            "probe_ms": statistics.median(probe.times) * 1e3,
        },
        "layers": layers,
        "units": measured.units,
        "samples": len(measured.unit_s),
        "cores": len(os.sched_getaffinity(0)),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "phases_ms": {
            name: statistics.median(values) * 1e3
            for name, values in measured.phases.items()
        },
        "canonical": canonical,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
