"""The sharded (multi-node) CoSPARSE runtime.

:class:`ShardedRuntime` splits a square operand into K contiguous row
shards (:mod:`repro.cluster.partition`), owns one co-reconfiguring
:class:`~repro.core.runtime.CoSparseRuntime` per shard — each making its
*own* per-invocation IP/OP and hardware-mode decision against its own
sub-matrix — and runs the unmodified graph drivers (BFS / SSSP /
PageRank) distributed: every iteration the active frontier non-zeros
are exchanged through a modeled interconnect
(:mod:`repro.cluster.topology`) before the shard kernels run.

Two execution paths produce bit-identical results:

* **serial** (``jobs=1`` or a single shard) — shard runtimes live in
  this process and run back-to-back;
* **pooled** — shard steps fan out to the process's worker pool through
  a :class:`~repro.parallel.scheduler.SweepScheduler` session: the
  shards' COO/CSC arrays are pinned in the process's shared-memory
  arena, so they are published once per session and ship by reference
  in every task whatever their size, while each superstep's frontier,
  semiring recipe arrays and ``current`` slices travel inline (below
  1 MiB; larger ones in a segment unlinked after the superstep);
  workers keep per-shard runtime memos, and the
  coordinator remains the single source of truth for each shard's
  mutable decision state (last config + the stateful hardware mode), so
  results cannot depend on task-to-worker placement.

The cycle model folds the interconnect in: a cluster iteration costs
``max(shard compute) + network``, giving every run a
network-vs-compute breakdown (`ClusterLog.total_network_cycles` /
``total_compute_cycles``).  Functionally, the merge is a plain
shard-order concatenation — contiguous row shards keep every row's
reduction (and its contribution order) inside one shard, so distributed
values/touched are bit-identical to single-node in original vertex ids.

Pooled runtimes pin their shard arrays in shared memory: use the
runtime as a context manager (or call :meth:`close`) so the segments
are unlinked as soon as the runtime is done; the process's pool and
arena outlive it.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.reconfig import IterationRecord
from ..core.runtime import CoSparseRuntime, SpMVOperand
from ..errors import ConfigurationError
from ..formats import COOMatrix, DenseVector, SparseVector
from ..graphs.common import DEFAULT_GEOMETRY
from ..hardware import Geometry, HWMode
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..obs.events import ClusterExchangeEvent, ShardDecisionEvent
from ..obs.tracer import active as _obs_active
from ..parallel import PricingTask, SweepScheduler
from ..parallel.scheduler import resolve_jobs
from ..parallel.work import coo_arrays, csc_arrays
from ..perf import counters as _perf
from ..spmv import SpMVResult
from ..spmv.semiring import Semiring
from .partition import build_shards, shard_bounds
from .topology import ENTRY_BYTES, ExchangeReport, LinkParams, topology_for
from .work import SHARD_FN

__all__ = ["ShardedRuntime", "ClusterLog", "ClusterIterationRecord"]

#: Policies a sharded run supports.  ``adaptive`` is excluded: it
#: mutates decision thresholds online per runtime, so K independent
#: shard trees would drift from the single-node trajectory.
_POLICIES = ("tree", "oracle", "static")

#: Per-process run tokens keying the worker-side shard-runtime memos.
_token_counter = itertools.count()


@dataclass
class ClusterIterationRecord:
    """One distributed SpMV invocation: K shard records + the exchange.

    Shards run concurrently in model time, so the iteration's compute
    cost is the *slowest* shard's cycles; the exchange (when charged —
    the seed frontier is node-local and free) is serialized before the
    kernels and adds its cycles on top.
    """

    iteration: int
    vector_density: float
    shard_records: List[IterationRecord] = field(default_factory=list)
    network_cycles: float = 0.0
    exchange: Optional[ExchangeReport] = None

    @property
    def compute_cycles(self) -> float:
        """The slowest shard's kernel + conversion cycles."""
        return max((r.total_cycles for r in self.shard_records), default=0.0)

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.network_cycles

    @property
    def config_label(self) -> str:
        """Distinct per-shard configs in shard order (``IP/SC|OP/PC``)."""
        return "|".join(
            dict.fromkeys(r.config_label for r in self.shard_records)
        )

    @property
    def sw_switched(self) -> bool:
        return any(r.sw_switched for r in self.shard_records)

    @property
    def hw_switched(self) -> bool:
        return any(r.hw_switched for r in self.shard_records)


@dataclass
class ClusterLog:
    """Execution history of one distributed algorithm run.

    Duck-types :class:`~repro.core.reconfig.ReconfigurationLog` (the
    drivers' :class:`~repro.graphs.common.AlgorithmRun` consumes either)
    and adds the network-vs-compute breakdown.
    """

    records: List[ClusterIterationRecord] = field(default_factory=list)
    clock_hz: float = DEFAULT_PARAMS.clock_hz

    def append(self, record: ClusterIterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def total_cycles(self) -> float:
        """Whole-run cycles: per-iteration max-shard compute + network."""
        return sum(r.total_cycles for r in self.records)

    @property
    def total_compute_cycles(self) -> float:
        return sum(r.compute_cycles for r in self.records)

    @property
    def total_network_cycles(self) -> float:
        return sum(r.network_cycles for r in self.records)

    @property
    def total_bytes(self) -> int:
        """Whole-run interconnect traffic in bytes."""
        return sum(
            r.exchange.total_bytes for r in self.records if r.exchange
        )

    @property
    def total_energy_j(self) -> Optional[float]:
        """Summed shard energies (None when no record carries energy)."""
        energies = [
            s.report.energy_j for r in self.records for s in r.shard_records
        ]
        if not energies or all(e is None for e in energies):
            return None
        return sum(e or 0.0 for e in energies)

    @property
    def sw_switches(self) -> int:
        """Iterations in which any shard switched software."""
        return sum(1 for r in self.records if r.sw_switched)

    @property
    def hw_switches(self) -> int:
        """Iterations in which any shard switched hardware mode."""
        return sum(1 for r in self.records if r.hw_switched)

    def config_sequence(self) -> List[str]:
        return [r.config_label for r in self.records]

    def density_sequence(self) -> List[float]:
        return [r.vector_density for r in self.records]

    def summary(self) -> str:
        """Multi-line digest with the network/compute split."""
        lines = [
            f"{len(self.records)} iterations, "
            f"{self.total_cycles:,.0f} cycles "
            f"({self.total_network_cycles:,.0f} network), "
            f"{self.total_bytes:,d} bytes exchanged"
        ]
        for r in self.records:
            lines.append(
                f"  iter {r.iteration:3d}: d_v={r.vector_density:8.4%}  "
                f"{r.config_label:16s}  {r.compute_cycles:12,.0f} compute "
                f"+ {r.network_cycles:10,.0f} net"
            )
        return "\n".join(lines)


class ShardedRuntime:
    """Drives distributed SpMV iterations over K row shards.

    Parameters
    ----------
    matrix:
        The square adjacency operand (:class:`SpMVOperand`,
        :class:`COOMatrix`, or anything scipy-like).
    nodes:
        Shard / node count K (``1 <= K <= n_rows``).  ``K=1`` degrades
        to exactly one single-node runtime (and charges no network).
    geometry:
        Per-node hardware shape (every node runs the same geometry).
    topology:
        ``"mesh"`` (full mesh) or ``"star"`` (switched star).
    partition:
        ``"nnz"`` (equal-nnz rows) or ``"commvol"`` (equal-nnz refined
        to cut fewer columns — less exchange traffic).
    link:
        :class:`~repro.cluster.topology.LinkParams` override.
    jobs:
        Host worker processes for the shard fan-out (default: the
        ``REPRO_JOBS``/cpu-count resolution).  ``jobs=1`` keeps every
        shard runtime in-process; results are bit-identical either way.
    policy / static_config / balanced / objective / params:
        Forwarded to every shard's :class:`CoSparseRuntime`.
        ``adaptive`` is rejected (online threshold mutation diverges
        from single-node).
    """

    def __init__(
        self,
        matrix,
        nodes: int,
        geometry: Union[Geometry, str] = DEFAULT_GEOMETRY,
        params: HardwareParams = DEFAULT_PARAMS,
        policy: str = "tree",
        static_config: Tuple[str, HWMode] = ("ip", HWMode.SC),
        balanced: bool = True,
        objective: str = "time",
        topology: str = "mesh",
        partition: str = "nnz",
        link: Optional[LinkParams] = None,
        jobs: Optional[int] = None,
    ):
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"sharded policy must be one of {_POLICIES} (adaptive "
                "mutates thresholds online and would drift from the "
                "single-node trajectory)"
            )
        if isinstance(matrix, SpMVOperand):
            coo = matrix.coo
        elif isinstance(matrix, COOMatrix):
            coo = matrix
        else:
            coo = COOMatrix.from_scipy(matrix)
        if coo.n_rows != coo.n_cols:
            raise ConfigurationError(
                "the sharded runtime shards the vertex space by row "
                f"ownership and needs a square operand, got "
                f"{coo.n_rows}x{coo.n_cols}"
            )
        nodes = int(nodes)
        if not 1 <= nodes <= max(coo.n_rows, 1):
            raise ConfigurationError(
                f"nodes must be in [1, {coo.n_rows}], got {nodes}"
            )
        self.geometry = (
            Geometry.parse(geometry) if isinstance(geometry, str) else geometry
        )
        self.params = params
        self.policy = policy
        self.static_config = static_config
        self.balanced = balanced
        self.objective = objective
        self.nodes = nodes
        self.partition = partition
        self.n = coo.n_rows
        self.bounds = shard_bounds(coo, nodes, partition)
        self.shards = build_shards(coo, self.bounds)
        self.topology = topology_for(topology, nodes, link)
        self.log = ClusterLog(clock_hz=params.clock_hz)
        self.jobs = resolve_jobs(jobs)
        self._iteration = 0
        self._announced = None
        self._token = f"shard-run-{next(_token_counter)}"
        #: A fully active frontier's traffic matrix (see :meth:`_exchange`).
        self._full_traffic: Optional[np.ndarray] = None
        self._runtimes: Optional[List[CoSparseRuntime]] = None
        self._scheduler: Optional[SweepScheduler] = None
        if self.jobs > 1 and nodes > 1:
            self._scheduler = SweepScheduler(
                jobs=min(self.jobs, nodes), use_cache=False, label="cluster"
            )
            self._params_spec = (
                None if params is DEFAULT_PARAMS else asdict(params)
            )
            #: Per-shard COO/CSC task arrays: the session's pinned set.
            self._shard_arrays = [
                {**coo_arrays(s.coo), **csc_arrays(s.csc)}
                for s in self.shards
            ]
            #: Coordinator-authoritative per-shard decision state.  The
            #: ``last_*`` pair mirrors the log-scoped fields a
            #: ``reset_log`` clears; ``system_mode`` is the *persistent*
            #: hardware mode, which survives across runs exactly as a
            #: resident single-node system's does.
            self._state: List[Dict[str, Optional[str]]] = [
                {"last_algorithm": None, "last_mode": None,
                 "system_mode": None}
                for _ in range(nodes)
            ]
        else:
            self._runtimes = [
                CoSparseRuntime(
                    SpMVOperand(s.coo, s.csc),
                    self.geometry,
                    params=params,
                    policy=policy,
                    static_config=static_config,
                    balanced=balanced,
                    objective=objective,
                )
                for s in self.shards
            ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unpin the pooled path's shard arrays (their segments go)."""
        if self._scheduler is not None:
            self._scheduler.close_session()

    def __enter__(self) -> "ShardedRuntime":
        if self._scheduler is not None:
            self._start_session()
        return self

    def _start_session(self) -> None:
        """Open (or keep) the pool session with the shard arrays pinned."""
        self._scheduler.start_session(
            [arr for arrays in self._shard_arrays for arr in arrays.values()]
        )

    def __exit__(self, *exc) -> None:
        self.close()

    def reset_log(self) -> None:
        """Fresh log for a new algorithm run on the same shards.

        Mirrors :meth:`CoSparseRuntime.reset_log`: log-scoped decision
        state resets, the resident hardware mode of every shard
        persists.
        """
        self.log = ClusterLog(clock_hz=self.params.clock_hz)
        self._iteration = 0
        self._announced = None
        if self._runtimes is not None:
            for rt in self._runtimes:
                rt.reset_log()
        else:
            for state in self._state:
                state["last_algorithm"] = None
                state["last_mode"] = None

    # ------------------------------------------------------------------
    # Driver integration
    # ------------------------------------------------------------------
    def on_frontier(self, frontier) -> None:
        """Driver hook (:func:`repro.graphs.common.notify_frontier`).

        Called the moment a new frontier exists — the point a real
        cluster would start broadcasting fresh non-zeros to the shards
        whose columns consume them.  The next :meth:`spmv` charges the
        exchange for exactly this frontier.
        """
        self._announced = frontier

    @property
    def last_record(self) -> Optional[ClusterIterationRecord]:
        return self.log.records[-1] if self.log.records else None

    def describe(self) -> dict:
        """Stable JSON-able summary (mirrors the single-node runtime)."""
        return {
            "nodes": self.nodes,
            "topology": self.topology.name,
            "partition": self.partition,
            "geometry": self.geometry.name,
            "policy": self.policy,
            "objective": self.objective,
            "balanced": self.balanced,
            "static_config": [
                self.static_config[0],
                self.static_config[1].label,
            ],
            "n_vertices": self.n,
            "nnz": sum(s.coo.nnz for s in self.shards),
            "pooled": self._scheduler is not None,
        }

    # ------------------------------------------------------------------
    # The distributed invocation
    # ------------------------------------------------------------------
    def spmv(self, frontier, semiring: Semiring, current=None) -> SpMVResult:
        """One distributed SpMV: exchange, K shard kernels, merge."""
        tracer = _obs_active()
        with tracer.span(
            "cluster.spmv", iteration=self._iteration, nodes=self.nodes
        ) as root:
            density = CoSparseRuntime.frontier_density(frontier, semiring)
            exchange = None
            if self._iteration > 0:
                with tracer.span(
                    "cluster.exchange",
                    iteration=self._iteration,
                    topology=self.topology.name,
                ) as ex_span:
                    exchange = self._exchange(frontier, semiring)
                    ex_span.set(
                        bytes=exchange.total_bytes, cycles=exchange.cycles
                    )
                _perf.cluster_exchange_bytes += exchange.total_bytes
                if tracer.enabled:
                    tracer.event(
                        ClusterExchangeEvent(
                            iteration=self._iteration,
                            topology=self.topology.name,
                            nodes=self.nodes,
                            bytes_total=exchange.total_bytes,
                            max_link_bytes=exchange.max_link_bytes,
                            network_cycles=exchange.cycles,
                        )
                    )
            cur = None if current is None else np.asarray(current)
            if self._runtimes is not None:
                pieces = self._run_serial(frontier, semiring, cur)
            else:
                pieces = self._run_pool(frontier, semiring, cur)
            # Shard-order merge: shard p's output IS rows [lo_p, hi_p).
            values = np.concatenate([p[0] for p in pieces])
            touched = np.concatenate([p[1] for p in pieces])
            shard_records = [p[2] for p in pieces]
            record = ClusterIterationRecord(
                iteration=self._iteration,
                vector_density=density,
                shard_records=shard_records,
                network_cycles=exchange.cycles if exchange else 0.0,
                exchange=exchange,
            )
            self.log.append(record)
            _perf.cluster_spmv_calls += 1
            _perf.cluster_shard_tasks += len(shard_records)
            if tracer.enabled:
                root.set(
                    config=record.config_label,
                    vector_density=density,
                    cycles=record.total_cycles,
                    network_cycles=record.network_cycles,
                )
                for shard_idx, r in enumerate(shard_records):
                    tracer.event(
                        ShardDecisionEvent(
                            iteration=self._iteration,
                            shard=shard_idx,
                            algorithm=r.algorithm,
                            hw_mode=r.hw_mode.label,
                            vector_density=r.vector_density,
                            cycles=r.total_cycles,
                        )
                    )
            self._iteration += 1
        return SpMVResult(values, touched, None, semiring)

    def spmv_batch(self, *args, **kw):
        raise ConfigurationError(
            "the sharded runtime does not batch supersteps; run "
            "sequential spmv() per frontier"
        )

    # ------------------------------------------------------------------
    # Exchange modeling
    # ------------------------------------------------------------------
    @staticmethod
    def _active_indices(frontier, semiring: Semiring) -> np.ndarray:
        if isinstance(frontier, SparseVector):
            return np.asarray(frontier.indices, dtype=np.int64)
        arr = (
            frontier.data
            if isinstance(frontier, DenseVector)
            else np.asarray(frontier)
        )
        if arr.ndim == 2:
            return np.nonzero(np.any(arr != semiring.absent, axis=1))[0]
        return np.nonzero(arr != semiring.absent)[0]

    def _exchange(self, frontier, semiring: Semiring) -> ExchangeReport:
        """Price this frontier's owner-to-consumer traffic.

        A fully active frontier (every vertex active, as PageRank's
        always is) moves the same entries every time, so its traffic
        matrix is counted once per runtime and reused.  The topology
        still prices, and charges its per-link counters, on every call.
        """
        idx = self._active_indices(frontier, semiring)
        if idx.size < self.n:
            traffic = self._traffic(idx)
        else:
            # Active indices are distinct, so this many are all of them.
            if self._full_traffic is None:
                self._full_traffic = self._traffic(idx)
            traffic = self._full_traffic
        return self.topology.exchange(traffic * ENTRY_BYTES)

    def _traffic(self, idx: np.ndarray) -> np.ndarray:
        """Entries each shard sends each other shard for active ``idx``.

        Every active vertex lives on the shard owning its row; each
        consumer shard ``q`` needs exactly the active vertices its
        column mask references.  ``traffic[p, q]`` counts shard-``p``
        -owned active vertices shard ``q`` consumes; the diagonal
        (node-local data) never touches the wire.
        """
        traffic = np.zeros((self.nodes, self.nodes), dtype=np.int64)
        if idx.size:
            for q, shard in enumerate(self.shards):
                need = idx[shard.col_mask[idx]]
                if need.size == 0:
                    continue
                owner = np.searchsorted(self.bounds, need, side="right") - 1
                traffic[:, q] += np.bincount(owner, minlength=self.nodes)
        np.fill_diagonal(traffic, 0)
        return traffic

    # ------------------------------------------------------------------
    # Shard execution: serial and pooled
    # ------------------------------------------------------------------
    def _run_serial(self, frontier, semiring, current):
        pieces = []
        for shard, rt in zip(self.shards, self._runtimes):
            cur = None if current is None else current[shard.lo:shard.hi]
            result = rt.spmv(frontier, semiring, current=cur)
            pieces.append((result.values, result.touched, rt.log.records[-1]))
        return pieces

    def _frontier_shipment(self, frontier):
        """``(payload marker, arrays)`` preserving the representation."""
        if isinstance(frontier, SparseVector):
            return "sparse", {
                "frontier_idx": frontier.indices,
                "frontier_vals": frontier.values,
            }
        arr = (
            frontier.data
            if isinstance(frontier, DenseVector)
            else np.asarray(frontier, dtype=np.float64)
        )
        return "dense", {"frontier_dense": arr}

    def _run_pool(self, frontier, semiring, current):
        if semiring.spec is None:
            raise ConfigurationError(
                f"semiring {semiring.name!r} carries no distributed "
                "reconstruction spec; construct the ShardedRuntime with "
                "jobs=1 to run it serially"
            )
        # Idempotent: the shard arrays stay pinned across iterations,
        # so they are published to shared memory once per session.
        self._start_session()
        marker, f_arrays = self._frontier_shipment(frontier)
        sr_arrays = {
            f"sr_{name}": arr
            for name, arr in (semiring.spec_arrays or {}).items()
        }
        tasks = []
        for shard, state, matrix in zip(
            self.shards, self._state, self._shard_arrays
        ):
            payload = {
                "token": self._token,
                "shard": shard.index,
                "shape": [shard.n_rows, self.n],
                "geometry": self.geometry.name,
                "policy": self.policy,
                "static_algorithm": self.static_config[0],
                "static_mode": self.static_config[1].name,
                "balanced": self.balanced,
                "objective": self.objective,
                "params": self._params_spec,
                "semiring": semiring.spec,
                "n": self.n,
                "frontier": marker,
                "state": {"iteration": self._iteration, **state},
            }
            arrays = {**matrix, **sr_arrays, **f_arrays}
            if current is not None:
                arrays["current"] = current[shard.lo:shard.hi]
            tasks.append(
                PricingTask(SHARD_FN, payload, arrays, cacheable=False)
            )
        results = self._scheduler.map(tasks)
        pieces = []
        for state, res in zip(self._state, results):
            record = res["record"]
            state["last_algorithm"] = record.algorithm
            state["last_mode"] = record.hw_mode.name
            # system.run() always leaves the hardware in the executed
            # mode (probes price without switching), so the persistent
            # mode IS the record's.
            state["system_mode"] = record.hw_mode.name
            pieces.append((res["values"], res["touched"], record))
        return pieces
