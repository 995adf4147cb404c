"""The sharded runtime's pool task: a fixed group of shards' SpMV steps.

A pooled superstep sends one task per worker, ``min(jobs, K)`` in all;
each runs its group of contiguous shards in shard order through the
per-shard body :func:`shard_step`, so the frontier and the semiring's
recipe arrays are pickled once per worker, not once per shard.  Follows
the task contract of :mod:`repro.parallel.work` — ``fn(payload, arrays)
-> dict`` — but is never cached (``cacheable=False``): the result
carries numpy arrays and :class:`IterationRecord` objects, which the
scheduler ships back by pickle, not JSON.

Worker-side memo
----------------
Rebuilding a shard's :class:`~repro.core.runtime.CoSparseRuntime` every
iteration would dominate the fan-out, so workers keep one runtime per
``(run token, shard)`` in :data:`_shard_runtimes`, for the
:data:`_SHARD_RUNS_KEPT` most recently used run tokens: a process that
builds many sharded runtimes does not grow its long-lived workers.  The
COO/CSC arrays arrive pre-built: the scheduler session pins them in the
process's shared-memory arena, so they are published once per session
and shipped by reference in every task, and a worker's memoised runtime
reads zero-copy views; the frontier, the semiring's recipe arrays and
each shard's ``current`` slice ride inline (or, from 1 MiB, in a
per-call segment).  A shard's own arrays travel under
``"<shard>/<name>"`` (:func:`shard_arrays`); the shared ones under
their plain names.  The
runtime's *mutable* decision state (last config, the stateful hardware
mode) is never trusted across calls: the coordinator tracks it centrally
and every task payload carries the authoritative snapshot, so results
are bit-identical no matter which worker a task lands on — or whether
it runs on the serial fallback path in the coordinator itself.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

import numpy as np

from ..core.runtime import CoSparseRuntime, SpMVOperand
from ..errors import AlgorithmError
from ..formats import COOMatrix, CSCMatrix, SparseVector
from ..hardware import HWMode
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..spmv.semiring import (
    Semiring,
    bfs_semiring,
    pagerank_semiring,
    spmv_semiring,
    sssp_semiring,
)

__all__ = [
    "SHARD_FN", "shard_steps", "shard_step", "shard_arrays",
    "semiring_from_spec",
]

#: Task-function address for :class:`~repro.parallel.tasks.PricingTask`.
SHARD_FN = "repro.cluster.work:shard_steps"

#: Run tokens whose shard runtimes a process keeps.
_SHARD_RUNS_KEPT = 4

#: run token -> {shard index: the shard's CoSparseRuntime}, per process,
#: least recently used first.
_shard_runtimes: "OrderedDict[str, Dict[int, CoSparseRuntime]]" = (
    OrderedDict()
)


def semiring_from_spec(
    spec: dict, arrays: Dict[str, np.ndarray]
) -> Semiring:
    """Rebuild a driver semiring from its JSON-able ``spec``.

    The recipe arrays (``spec_arrays``) arrive under ``sr_``-prefixed
    task-array names.  Every builder is a pure function of its inputs,
    so the rebuilt semiring computes bit-identical results to the
    coordinator's original.
    """
    kind = spec["kind"]
    if kind == "spmv":
        return spmv_semiring()
    if kind == "bfs":
        return bfs_semiring()
    if kind == "sssp":
        return sssp_semiring()
    if kind == "pagerank":
        return pagerank_semiring(arrays["sr_degrees"], alpha=spec["alpha"])
    if kind == "pagerank_norm":
        # Late import: repro.graphs imports the core runtime; binding at
        # call time keeps the cluster package importable from anywhere.
        from ..graphs.pagerank import pagerank_norm_semiring

        return pagerank_norm_semiring(
            arrays["sr_degrees"], spec["alpha"], int(spec["n"])
        )
    raise AlgorithmError(f"unknown semiring spec kind {kind!r}")


def _runtime_for(
    payload: dict, arrays: Dict[str, np.ndarray]
) -> CoSparseRuntime:
    token, shard = payload["token"], int(payload["shard"])
    run = _shard_runtimes.get(token)
    if run is None:
        run = _shard_runtimes[token] = {}
        while len(_shard_runtimes) > _SHARD_RUNS_KEPT:
            _shard_runtimes.popitem(last=False)
    else:
        _shard_runtimes.move_to_end(token)
    rt = run.get(shard)
    if rt is not None:
        return rt
    n_rows, n_cols = payload["shape"]
    coo = COOMatrix(
        n_rows,
        n_cols,
        arrays["coo_rows"],
        arrays["coo_cols"],
        arrays["coo_vals"],
        sort=False,
        check=False,
    )
    csc = CSCMatrix(
        n_rows,
        n_cols,
        arrays["csc_indptr"],
        arrays["csc_indices"],
        arrays["csc_vals"],
        check=False,
    )
    params_spec = payload.get("params")
    params = (
        DEFAULT_PARAMS if params_spec is None else HardwareParams(**params_spec)
    )
    rt = CoSparseRuntime(
        SpMVOperand(coo, csc),
        payload["geometry"],
        params=params,
        policy=payload["policy"],
        static_config=(
            payload["static_algorithm"],
            HWMode[payload["static_mode"]],
        ),
        balanced=bool(payload["balanced"]),
        objective=payload["objective"],
    )
    run[shard] = rt
    return rt


def _frontier_from(payload: dict, arrays: Dict[str, np.ndarray]):
    """The frontier in the same representation the coordinator held.

    Representation matters beyond the functional result: the decision
    density and the charged conversion cycles depend on whether the
    frontier arrived sparse or dense, and bit-identity to single-node
    requires matching both.
    """
    if payload["frontier"] == "sparse":
        return SparseVector(
            int(payload["n"]),
            arrays["frontier_idx"],
            arrays["frontier_vals"],
            sort=False,
            check=False,
        )
    return arrays["frontier_dense"]


def shard_step(payload: dict, arrays: Dict[str, np.ndarray]) -> dict:
    """Run one shard's reconfigured SpMV invocation (the per-shard body
    of :func:`shard_steps`).

    Payload: ``token``/``shard`` (memo key), ``shape`` (local rows ×
    global cols), runtime config (``geometry``, ``policy``,
    ``static_algorithm``/``static_mode``, ``balanced``, ``objective``,
    ``params``), ``semiring`` (spec dict), ``frontier`` ("sparse" or
    "dense") + ``n``, and ``state`` — the coordinator's authoritative
    per-shard snapshot (iteration number, last logged config, the
    persistent hardware mode).  Arrays: the shard matrix in both
    formats, the frontier, the semiring's recipe arrays, and the
    shard's ``current`` slice (carry semirings).

    Returns the shard's values/touched slices plus the single
    :class:`IterationRecord` the invocation logged (pickled back whole
    so the coordinator's cluster log holds real per-shard records).
    """
    rt = _runtime_for(payload, arrays)
    state = payload["state"]
    rt.reset_log()
    rt._iteration = int(state["iteration"])
    rt._last_algorithm = state["last_algorithm"]
    rt._last_mode = (
        None if state["last_mode"] is None else HWMode[state["last_mode"]]
    )
    rt.system.current_mode = (
        None if state["system_mode"] is None else HWMode[state["system_mode"]]
    )
    semiring = semiring_from_spec(payload["semiring"], arrays)
    frontier = _frontier_from(payload, arrays)
    result = rt.spmv(frontier, semiring, current=arrays.get("current"))
    return {
        "values": result.values,
        "touched": result.touched,
        "record": rt.log.records[0],
    }


def shard_arrays(shard: int, arrays: Dict[str, np.ndarray]) -> dict:
    """``arrays`` named for one shard of a group task."""
    return {f"{shard}/{name}": arr for name, arr in arrays.items()}


def shard_steps(payload: dict, arrays: Dict[str, np.ndarray]) -> dict:
    """Run a fixed group of shards' steps, in shard order.

    Payload: every :func:`shard_step` field the group shares, plus
    ``shards``, one ``{"shard", "shape", "state"}`` dict per shard in
    shard order.  Arrays: the shared frontier and recipe arrays under
    their plain names, and each shard's own under ``"<shard>/<name>"``.
    Returns ``{"steps": [...]}``, one :func:`shard_step` result per
    shard, in the order of ``shards``.
    """
    shared = {name: arr for name, arr in arrays.items() if "/" not in name}
    steps = []
    for own in payload["shards"]:
        prefix = f"{own['shard']}/"
        mine = {
            name[len(prefix):]: arr
            for name, arr in arrays.items()
            if name.startswith(prefix)
        }
        steps.append(shard_step({**payload, **own}, {**shared, **mine}))
    return {"steps": steps}
