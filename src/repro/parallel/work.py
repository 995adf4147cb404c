"""Task functions the sweep scheduler dispatches, plus worker memos.

Every function here follows the same contract (see
:mod:`repro.parallel.tasks`): ``fn(payload, arrays) -> dict`` where the
payload is JSON-able, the arrays are read-only numpy views, and the
returned dict contains only JSON-able scalars/lists — the scheduler may
round-trip it through the persistent pricing cache.

Worker-side memos
-----------------
Pricing hundreds of points per sweep makes per-call construction the
hot path, so the expensive invariants are cached per process:

* :func:`semiring_for` — one :class:`~repro.spmv.semiring.Semiring` per
  algebra (the old ``run_config`` built one per innermost loop call);
* :func:`system_for` — one :class:`~repro.hardware.TransmuterSystem`
  per ``(geometry, params)``;
* :func:`partition_for` — one static partition per
  ``(matrix token, geometry, balanced)``, read by IP and OP tasks alike;
* :func:`seeded_frontier` — one read-only seeded frontier per
  ``(n, density, seed)``: a grid point's IP and OP tasks share one
  spec, and so do the points of every geometry a matrix is priced on.

The memos live at module scope: pool workers are forked with the module
already imported and live as long as the process's pool, so a worker's
memos serve every call it takes, and the ``REPRO_JOBS=1`` serial path
shares the very same caches, so both paths price through identical
objects.

Telemetry
---------
:func:`pool_entry` returns each pool task's :mod:`repro.perf` counter
deltas and, when the coordinator traces, its span and event records, so
the coordinator's counters and trace read the same for any worker count.
"""

from __future__ import annotations

import importlib
import os
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..analysis import sanitize
from ..formats import COOMatrix, CSCMatrix, SparseVector
from ..hardware import Geometry, HWMode, TransmuterSystem
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..obs.tracer import NullTracer, Tracer, override
from ..obs.tracer import active as _obs_active
from ..perf import counters as _perf
from ..spmv import (
    inner_product,
    outer_product,
    spmv_semiring,
    sssp_semiring,
)
from ..spmv.partition import build_ip_partitions
from ..workloads import random_frontier

__all__ = [
    "execute",
    "resolve_arrays",
    "semiring_for",
    "system_for",
    "partition_for",
    "seeded_frontier",
    "coo_arrays",
    "csc_arrays",
    "price_config",
    "gains_case",
    "fig10_case",
    "poison",
    "pool_init",
    "pool_entry",
]

#: Set in pool workers by :func:`pool_init`; the test-only
#: :func:`poison` function keys off it so a "poisoned" task kills pool
#: workers but degrades to a clean result on the serial fallback path.
_POOL_ENV = "REPRO_POOL_WORKER"


# ----------------------------------------------------------------------
# Resolution and dispatch
# ----------------------------------------------------------------------
def _resolve_fn(fn: str) -> Callable:
    """``"module.path:function"`` -> the callable."""
    module, _, name = fn.partition(":")
    if not name:
        raise ValueError(f"task fn must be 'module:function', got {fn!r}")
    return getattr(importlib.import_module(module), name)


def resolve_arrays(arrays: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Materialise task arrays: attach shared-memory refs, pass ndarrays."""
    out = {}
    for name, spec in arrays.items():
        if isinstance(spec, np.ndarray):
            out[name] = spec
        else:
            from .shm import attach

            out[name] = attach(spec)
    return out


def execute(fn: str, payload: dict, arrays: Dict[str, object]) -> dict:
    """Run one task function in this process."""
    return _resolve_fn(fn)(payload, resolve_arrays(arrays))


def pool_init(started) -> None:
    """ProcessPool initializer: mark the process as a pool worker and pin
    it to a CPU of its own.

    ``started`` is the pool's shared count of started workers; the i-th
    worker to start takes the i-th CPU of the affinity set it inherited,
    round robin (see :func:`repro.parallel.pool._new_pool` for why).
    """
    os.environ[_POOL_ENV] = "1"
    if not hasattr(os, "sched_setaffinity"):
        return
    with started.get_lock():
        slot = started.value
        started.value += 1
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[slot % len(cpus)]})


def pool_entry(spec) -> Tuple[int, dict, float, dict, Optional[tuple]]:
    """Pool-side task entry: ``(index, fn, payload, arrays, traced,
    (live, env))`` in, ``(index, result, busy_seconds, counter_deltas,
    trace)`` out.

    A worker outlives the call that forked it, so each task first adopts
    the coordinator's ``REPRO_*`` variables (``env``) and lets go of the
    shared-memory segments the coordinator's arena no longer holds
    (``live`` names the ones it does); the task's other attachments are
    closed when it ends.  The task runs under a fresh tracer when the
    coordinator traces, else under a null one, so a forked worker never
    appends to its inherited copy of the coordinator's tracer.
    ``trace`` is ``(records, epoch_s, pid)`` for
    :meth:`~repro.obs.tracer.Tracer.adopt`, or None.  The busy time is
    host wall clock (never model cycles); the scheduler aggregates it
    into the worker-utilization metric.
    """
    import time

    from .shm import release

    index, fn, payload, arrays, traced, (live, env) = spec
    _adopt_env(env)
    release(live)
    tracer = Tracer(label="worker") if traced else NullTracer()
    before = _perf.snapshot()
    t0 = time.perf_counter()
    try:
        with override(tracer):
            result = execute(fn, payload, arrays)
    finally:
        release()
    busy_s = time.perf_counter() - t0
    trace = (tracer.records, tracer.epoch_s, os.getpid()) if traced else None
    return index, result, busy_s, _perf.since(before), trace


#: The coordinator environment this worker adopted last, or None.
_adopted_env: Optional[Dict[str, str]] = None


def _adopt_env(env: Dict[str, str]) -> None:
    """Make this worker's ``REPRO_*`` variables the coordinator's."""
    global _adopted_env
    if env == _adopted_env:
        return
    for name in [
        n for n in os.environ
        if n.startswith("REPRO_") and n not in env and n != _POOL_ENV
    ]:
        del os.environ[name]
    os.environ.update(env)
    _adopted_env = dict(env)


# ----------------------------------------------------------------------
# Worker memos
# ----------------------------------------------------------------------
_semirings: Dict[str, object] = {}
_systems: Dict[Tuple, TransmuterSystem] = {}
#: token-keyed partition memo: (token, tiles, pes, balanced) -> partition
_partitions: Dict[Tuple, object] = {}

#: (n, density, seed) -> read-only seeded frontier, oldest first.
_frontiers: Dict[Tuple[int, float, int], SparseVector] = {}
#: Stored frontier entries the memo keeps at most (16 bytes each, so
#: 16 MiB) beyond its newest frontier.
_FRONTIER_MEMO_ENTRIES = 1 << 20

_SEMIRING_BUILDERS = {"spmv": spmv_semiring, "sssp": sssp_semiring}


def semiring_for(name: str = "spmv"):
    """The shared semiring instance for one algebra (built once)."""
    semiring = _semirings.get(name)
    if semiring is None:
        semiring = _semirings[name] = _SEMIRING_BUILDERS[name]()
    return semiring


def _params_key(params: Optional[HardwareParams]) -> Optional[tuple]:
    if params is None or params is DEFAULT_PARAMS:
        return None
    import dataclasses

    return tuple(sorted(dataclasses.asdict(params).items()))


def system_for(
    geometry, params: Optional[HardwareParams] = None
) -> TransmuterSystem:
    """One :class:`TransmuterSystem` per (geometry, params), memoised."""
    if isinstance(geometry, str):
        geometry = Geometry.parse(geometry)
    key = (geometry.tiles, geometry.pes_per_tile, _params_key(params))
    system = _systems.get(key)
    if system is None:
        system = _systems[key] = (
            TransmuterSystem(geometry, params)
            if params is not None
            else TransmuterSystem(geometry)
        )
    return system


def partition_for(
    token: str,
    geometry: Geometry,
    matrix: Union[COOMatrix, CSCMatrix],
    balanced: bool = True,
):
    """One static partition per (matrix token, geometry, balanced).

    ``token`` names the matrix's content; the matrix may be its COO
    (IP) or CSC (OP) copy, which have the same row extents.
    """
    key = (token, geometry.tiles, geometry.pes_per_tile, balanced)
    part = _partitions.get(key)
    if part is None:
        part = _partitions[key] = build_ip_partitions(
            matrix.row_extents(),
            geometry.tiles,
            geometry.pes_per_tile,
            balanced=balanced,
        )
    return part


def seeded_frontier(n: int, density: float, seed: int) -> SparseVector:
    """``random_frontier(n, density, seed=seed)``, built once per process.

    The frontier is shared by every task that names the same spec, so
    its arrays are read-only.  The memo drops its oldest frontiers once
    they hold more than :data:`_FRONTIER_MEMO_ENTRIES` entries.  Every
    step is one dict operation: threads racing on one spec build equal
    frontiers twice, and racing evictions drop an entry at most early.
    """
    key = (n, density, seed)
    frontier = _frontiers.get(key)
    if frontier is None:
        frontier = random_frontier(n, density, seed=seed)
        frontier.indices.flags.writeable = False
        frontier.values.flags.writeable = False
        _frontiers[key] = frontier
        held = list(_frontiers.items())
        excess = sum(f.nnz for _k, f in held) - frontier.nnz
        for old_key, old in held[:-1]:
            if excess <= _FRONTIER_MEMO_ENTRIES:
                break
            _frontiers.pop(old_key, None)
            excess -= old.nnz
    return frontier


# ----------------------------------------------------------------------
# Array (de)construction helpers shared with the drivers
# ----------------------------------------------------------------------
def coo_arrays(coo: COOMatrix) -> Dict[str, np.ndarray]:
    """The COO matrix's arrays under the task-protocol names."""
    return {"coo_rows": coo.rows, "coo_cols": coo.cols, "coo_vals": coo.vals}


def csc_arrays(csc: CSCMatrix) -> Dict[str, np.ndarray]:
    """The CSC matrix's arrays under the task-protocol names."""
    return {
        "csc_indptr": csc.indptr,
        "csc_indices": csc.indices,
        "csc_vals": csc.vals,
    }


def _coo_from(payload: dict, arrays: Dict[str, np.ndarray]) -> COOMatrix:
    n_rows, n_cols = payload["shape"]
    return COOMatrix(
        n_rows,
        n_cols,
        arrays["coo_rows"],
        arrays["coo_cols"],
        arrays["coo_vals"],
        sort=False,
        check=False,
    )


def _csc_from(payload: dict, arrays: Dict[str, np.ndarray]) -> CSCMatrix:
    n_rows, n_cols = payload["shape"]
    return CSCMatrix(
        n_rows,
        n_cols,
        arrays["csc_indptr"],
        arrays["csc_indices"],
        arrays["csc_vals"],
        check=False,
    )


def _frontier_from(
    spec: dict, arrays: Dict[str, np.ndarray]
) -> SparseVector:
    """Rebuild one frontier of a task — seeded spec or explicit arrays.

    The seeded form regenerates the exact bits the serial driver would
    (``random_frontier`` is a pure function of ``(n, density, seed)``),
    so shipping three scalars replaces shipping two arrays.
    """
    if "seed" in spec:
        return seeded_frontier(
            int(spec["n"]), float(spec["density"]), int(spec["seed"])
        )
    return SparseVector(
        int(spec["n"]), arrays["frontier_idx"], arrays["frontier_vals"]
    )


def _params_from(payload: dict) -> Optional[HardwareParams]:
    spec = payload.get("params")
    return None if spec is None else HardwareParams(**spec)


# ----------------------------------------------------------------------
# Task functions
# ----------------------------------------------------------------------
def price_config(payload: dict, arrays: Dict[str, np.ndarray]) -> dict:
    """Price one ``(matrix, algorithm, hw_mode)`` row: one point per
    frontier, in list order.

    Payload keys: ``algorithm`` ("ip"/"op"), ``mode`` (HWMode label),
    ``geometry`` ("AxB"), ``shape`` ([n_rows, n_cols]), ``frontiers``
    (a list of frontier specs: the seeded form ``{"n", "density",
    "seed"}``, or ``{"n"}`` for the explicit ``frontier_idx`` /
    ``frontier_vals`` arrays, which a task carries for at most one of
    its frontiers), optional ``semiring`` ("spmv"/"sssp"),
    ``balanced``, ``profile_only``, ``use_partition`` + ``token`` (the
    partition memo key, naming the matrix's content; IP reads both
    partition levels, OP its tile level), ``params`` (HardwareParams
    overrides), ``vblock_width`` (IP blocking override, the autotuner's
    candidate widths).  Arrays: the matrix in the format the algorithm
    streams (COO for IP, CSC for OP), optional
    ``frontier_idx``/``frontier_vals``/``current``.

    Returns ``{"points": [...]}``, each point the ``cycles``,
    ``energy_j`` and ``clock_hz`` of one frontier.  The matrix, its
    partition, the system and the semiring are set up once per row, and
    the row's profiles are priced in one stacked solve; the sanitizer,
    when on, checks each report.
    """
    specs = payload["frontiers"]
    if sum("seed" not in spec for spec in specs) > 1:
        raise ValueError(
            "a pricing task carries at most one explicit frontier"
        )
    geometry = Geometry.parse(payload["geometry"])
    params = _params_from(payload)
    system = system_for(payload["geometry"], params)
    semiring = semiring_for(payload.get("semiring", "spmv"))
    mode = HWMode[payload["mode"]]
    current = arrays.get("current")
    balanced = bool(payload.get("balanced", True))
    profile_only = bool(payload.get("profile_only", False))
    kw = {} if params is None else {"params": params}
    ip = payload["algorithm"] == "ip"
    matrix = _coo_from(payload, arrays) if ip else _csc_from(payload, arrays)
    partition = None
    if payload.get("use_partition"):
        partition = partition_for(payload["token"], geometry, matrix, balanced)
    vb = payload.get("vblock_width")
    profiles = []
    for spec in specs:
        frontier = _frontier_from(spec, arrays)
        if ip:
            if semiring.absent == 0.0:
                dense = frontier.to_dense()
            else:
                dense = np.full(frontier.n, semiring.absent)
                dense[frontier.indices] = frontier.values
            kern = inner_product(
                matrix,
                dense,
                semiring,
                geometry,
                mode,
                current=current,
                partition=partition,
                balanced=balanced,
                profile_only=profile_only,
                vblock_width=None if vb is None else int(vb),
                **kw,
            )
        else:
            kern = outer_product(
                matrix,
                frontier,
                semiring,
                geometry,
                mode,
                current=current,
                partition=partition,
                balanced=balanced,
                profile_only=profile_only,
                **kw,
            )
        profiles.append(kern.profile)
    with _obs_active().span("price", profiles=len(profiles)):
        reports = system.evaluate_many(profiles)
    san = sanitize.active()
    points = []
    label = f"price_config {payload['algorithm']}/{payload['mode']}"
    for i, rep in enumerate(reports):
        san.check_report(f"{label} point {i}", rep)
        points.append({
            "cycles": float(rep.cycles),
            "energy_j": None if rep.energy_j is None else float(rep.energy_j),
            "clock_hz": float(rep.clock_hz),
        })
    return {"points": points}


def gains_case(payload: dict, arrays: Dict[str, np.ndarray]) -> dict:
    """One (algorithm, graph) row of the co-reconfiguration gains study.

    Loads the Table III stand-in from the on-disk workload cache (safe
    under concurrency: writes are atomic-rename), runs the algorithm
    under the ``tree`` policy and pinned to IP/SC, verifies the two
    agree functionally, and returns the row's numbers.
    """
    # Late imports: the experiments/graphs packages import the parallel
    # package, so binding them at call time keeps the import DAG acyclic.
    from ..core.runtime import CoSparseRuntime
    from ..experiments.common import table3_graph
    from ..graphs import bfs, connected_components, sssp

    algorithm = payload["algorithm"]
    geometry_name = payload["geometry"]
    graph = table3_graph(payload["graph"], scale=int(payload["scale"]))
    src = int(np.argmax(graph.out_degrees()))
    if algorithm == "cc":
        # CC builds its own symmetrised operand internally.
        dynamic = connected_components(graph, geometry=geometry_name)
        static = connected_components(
            graph,
            geometry=geometry_name,
            policy="static",
            static_config=("ip", HWMode.SC),
        )
    else:
        driver = {"bfs": bfs, "sssp": sssp}[algorithm]
        geometry = Geometry.parse(geometry_name)
        dynamic = driver(
            graph,
            src,
            runtime=CoSparseRuntime(graph.operand, geometry, policy="tree"),
        )
        static = driver(
            graph,
            src,
            runtime=CoSparseRuntime(
                graph.operand,
                geometry,
                policy="static",
                static_config=("ip", HWMode.SC),
            ),
        )
    if not np.allclose(
        np.nan_to_num(dynamic.values, posinf=-1.0),
        np.nan_to_num(static.values, posinf=-1.0),
    ):
        raise AssertionError(
            f"policies disagree on {algorithm}/{payload['graph']}"
        )
    return {
        "reconfigured_cycles": float(dynamic.total_cycles),
        "static_cycles": float(static.total_cycles),
        "sw_switches": int(dynamic.log.sw_switches),
    }


def fig10_case(payload: dict, arrays: Dict[str, np.ndarray]) -> dict:
    """One (algorithm, graph) row of the Ligra comparison (Fig. 10)."""
    from ..experiments.common import table3_graph
    from ..experiments.fig10 import _run_pair

    graph = table3_graph(payload["graph"], scale=int(payload["scale"]))
    co, li = _run_pair(
        payload["algorithm"],
        graph,
        payload["geometry"],
        bool(payload.get("check", True)),
    )
    co_e = co.total_energy_j
    return {
        "cosparse_s": float(co.time_s),
        "ligra_s": float(li.time_s),
        "cosparse_energy_j": None if not co_e else float(co_e),
        "ligra_energy_j": float(li.energy_j),
        "iters": int(co.iterations),
        "sw_switches": int(co.log.sw_switches),
    }


def poison(payload: dict, arrays: Dict[str, np.ndarray]) -> dict:
    """Test-only task: misbehave inside a pool worker.

    ``mode="exit"`` kills the worker process outright (exercising the
    ``BrokenProcessPool`` -> serial-fallback path; on the serial path it
    returns cleanly), ``mode="hang"`` sleeps past any reasonable
    timeout, ``mode="raise"`` raises a deterministic error everywhere.
    """
    mode = payload.get("mode", "exit")
    in_pool = os.environ.get(_POOL_ENV) == "1"
    if mode == "raise":
        raise RuntimeError("poisoned task")
    if in_pool:
        if mode == "exit":
            os._exit(13)
        if mode == "hang":
            import time

            time.sleep(float(payload.get("sleep_s", 3600.0)))
    return {"ok": 1, "mode": mode}
