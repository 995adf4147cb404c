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
* :func:`partition_for` — one equal-nnz IP partition per
  ``(matrix token, geometry, balanced)``.

The memos live at module scope: pool workers are forked with the module
already imported, and the ``REPRO_JOBS=1`` serial path shares the very
same caches, so both paths price through identical objects.

Telemetry
---------
:func:`pool_entry` returns each pool task's :mod:`repro.perf` counter
deltas and, when the coordinator traces, its span and event records, so
the coordinator's counters and trace read the same for any worker count.
"""

from __future__ import annotations

import importlib
import os
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..formats import COOMatrix, CSCMatrix, SparseVector
from ..hardware import Geometry, HWMode, TransmuterSystem
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..obs.tracer import NullTracer, Tracer, override
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
    round robin (see :func:`repro.parallel.scheduler._new_pool` for why).
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
    """Pool-side task entry: ``(index, fn, payload, arrays, traced)`` in,
    ``(index, result, busy_seconds, counter_deltas, trace)`` out.

    The task runs under a fresh tracer when the coordinator traces, else
    under a null one, so a forked worker never appends to its inherited
    copy of the coordinator's tracer.  ``trace`` is ``(records, epoch_s,
    pid)`` for :meth:`~repro.obs.tracer.Tracer.adopt`, or None.  The busy
    time is host wall clock (never model cycles); the scheduler
    aggregates it into the worker-utilization metric.
    """
    import time

    index, fn, payload, arrays, traced = spec
    tracer = Tracer(label="worker") if traced else NullTracer()
    before = _perf.snapshot()
    t0 = time.perf_counter()
    with override(tracer):
        result = execute(fn, payload, arrays)
    busy_s = time.perf_counter() - t0
    trace = (tracer.records, tracer.epoch_s, os.getpid()) if traced else None
    return index, result, busy_s, _perf.since(before), trace


# ----------------------------------------------------------------------
# Worker memos
# ----------------------------------------------------------------------
_semirings: Dict[str, object] = {}
_systems: Dict[Tuple, TransmuterSystem] = {}
#: token-keyed partition memo: (token, tiles, pes, balanced) -> partition
_partitions: Dict[Tuple, object] = {}

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
    token: str, geometry: Geometry, coo: COOMatrix, balanced: bool = True
):
    """One equal-nnz IP partition per (matrix token, geometry)."""
    key = (token, geometry.tiles, geometry.pes_per_tile, balanced)
    part = _partitions.get(key)
    if part is None:
        part = _partitions[key] = build_ip_partitions(
            coo.row_extents(),
            geometry.tiles,
            geometry.pes_per_tile,
            balanced=balanced,
        )
    return part


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
    payload: dict, arrays: Dict[str, np.ndarray]
) -> SparseVector:
    """Rebuild the task's frontier — seeded spec or explicit arrays.

    The seeded form regenerates the exact bits the serial driver would
    (``random_frontier`` is a pure function of ``(n, density, seed)``),
    so shipping three scalars replaces shipping two arrays.
    """
    spec = payload["frontier"]
    if "seed" in spec:
        return random_frontier(
            int(spec["n"]), float(spec["density"]), seed=int(spec["seed"])
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
    """Price one ``(matrix, frontier, algorithm, hw_mode)`` point.

    Payload keys: ``algorithm`` ("ip"/"op"), ``mode`` (HWMode label),
    ``geometry`` ("AxB"), ``shape`` ([n_rows, n_cols]), ``frontier``
    (seeded spec or explicit-array marker), optional ``semiring``
    ("spmv"/"sssp"), ``balanced``, ``profile_only``, ``use_partition``
    + ``token`` (equal-nnz IP partition memo key), ``params``
    (HardwareParams overrides), ``vblock_width`` (IP blocking override,
    the autotuner's candidate widths).  Arrays: the matrix in the format the
    algorithm streams (COO for IP, CSC for OP), optional
    ``frontier_idx``/``frontier_vals``/``current``.
    """
    geometry = Geometry.parse(payload["geometry"])
    params = _params_from(payload)
    system = system_for(payload["geometry"], params)
    semiring = semiring_for(payload.get("semiring", "spmv"))
    mode = HWMode[payload["mode"]]
    frontier = _frontier_from(payload, arrays)
    current = arrays.get("current")
    balanced = bool(payload.get("balanced", True))
    profile_only = bool(payload.get("profile_only", False))
    kw = {} if params is None else {"params": params}
    if payload["algorithm"] == "ip":
        coo = _coo_from(payload, arrays)
        partition = None
        if payload.get("use_partition"):
            partition = partition_for(payload["token"], geometry, coo)
        if semiring.absent == 0.0:
            dense = frontier.to_dense()
        else:
            dense = np.full(frontier.n, semiring.absent)
            dense[frontier.indices] = frontier.values
        vb = payload.get("vblock_width")
        kern = inner_product(
            coo,
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
        csc = _csc_from(payload, arrays)
        kern = outer_product(
            csc,
            frontier,
            semiring,
            geometry,
            mode,
            current=current,
            balanced=balanced,
            profile_only=profile_only,
            **kw,
        )
    rep = system.evaluate_without_switching(kern.profile)
    return {
        "cycles": float(rep.cycles),
        "energy_j": None if rep.energy_j is None else float(rep.energy_j),
        "clock_hz": float(rep.clock_hz),
    }


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
