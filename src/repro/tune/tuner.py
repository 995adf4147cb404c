"""The locality autotuner: pick a per-matrix layout plan.

:func:`autotune` scores every candidate of the grid (ordering × vblock
width) by the number a tuned run reports: its modelled cycles.  Each
candidate is one analytic pricing probe (``price_config``, IP kernel,
full frontier, the candidate's vblock width) in both SC and SCS
hardware modes, fanned through the parallel sweep engine; the better of
the two modes is the candidate's cost.

The fewest cycles win, and the identity baseline (grid index 0) wins
every tie, so a plan never prices worse than the untuned layout and the
pick depends on nothing but the model: the same matrix, geometry and
params give the same plan on any host and at any worker count.

Every probe is a cacheable pricing task, so a warm re-tune of an
unchanged matrix executes zero kernels even when the plan cache is
disabled — and with the plan cache (default), the whole evaluation is
skipped outright.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..formats import COOMatrix
from ..hardware import DEFAULT_PARAMS, Geometry, HardwareParams
from ..obs.events import TuningEvent
from ..obs.tracer import active as _obs_active
from ..parallel.scheduler import SweepScheduler
from ..parallel.tasks import PricingTask
from ..parallel.work import coo_arrays
from ..perf import counters as _perf
from ..workloads.reorder import permute_matrix
from .candidates import (
    Candidate,
    candidate_grid,
    grid_signature,
    ordering_permutation,
)
from .plan import PlanCache, TuningPlan, plan_cache_enabled, plan_key

__all__ = ["autotune", "TUNE_FRONTIER_SEED", "DEFAULT_TUNE_GEOMETRY"]

#: Geometry assumed when the caller does not name one (the paper's
#: 8x16 full-chip configuration, same default as the graph drivers).
DEFAULT_TUNE_GEOMETRY = "8x16"

#: Frontier seed for the pricing probes.  Fixed so probe task payloads
#: — hence pricing-cache keys — are stable across runs.
TUNE_FRONTIER_SEED = 1906

#: Hardware modes the pricing probe tries; the candidate's modelled
#: cycle cost is the better of the two.
PROBE_MODES: Tuple[str, ...] = ("SC", "SCS")


def _as_coo(matrix) -> COOMatrix:
    """Accept a COOMatrix, an SpMV operand, or a graph."""
    if hasattr(matrix, "operand"):
        matrix = matrix.operand
    if hasattr(matrix, "coo"):
        matrix = matrix.coo
    if not isinstance(matrix, COOMatrix):
        raise ConfigurationError(
            "autotune needs a COOMatrix, an SpMVOperand or a Graph, got "
            f"{type(matrix).__name__}"
        )
    return matrix


def autotune(
    matrix,
    geometry=DEFAULT_TUNE_GEOMETRY,
    params: HardwareParams = DEFAULT_PARAMS,
    orderings: Optional[Sequence[str]] = None,
    widths: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
    use_plan_cache: Optional[bool] = None,
    label: str = "tune",
) -> TuningPlan:
    """Tune ``matrix`` for ``geometry``; returns the winning plan.

    Parameters mirror :func:`~repro.tune.candidates.candidate_grid`
    (``orderings``/``widths`` restrict the grid), plus ``jobs`` (sweep
    worker count) and ``use_plan_cache`` (override the
    ``REPRO_TUNE_CACHE`` switch).  The identity baseline is always
    evaluated.
    """
    coo = _as_coo(matrix)
    if isinstance(geometry, str):
        geometry = Geometry.parse(geometry)
    grid = candidate_grid(geometry, params, orderings, widths)
    key = plan_key(coo, geometry.name, grid_signature(grid), params)
    use_cache = (
        plan_cache_enabled() if use_plan_cache is None else bool(use_plan_cache)
    )
    cache = PlanCache() if use_cache else None
    _perf.tuning_runs += 1
    tracer = _obs_active()
    with tracer.span(
        "tune.autotune",
        label=label,
        geometry=geometry.name,
        candidates=len(grid),
        matrix_key=key[:12],
    ) as span:
        if cache is not None:
            plan = cache.get(key)
            if plan is not None:
                _perf.tuning_plan_cache_hits += 1
                span.set(plan=plan.label, plan_cache_hit=True)
                _emit(tracer, key, geometry, plan, True)
                return plan
        _perf.tuning_plan_cache_misses += 1
        plan = _evaluate(coo, geometry, params, grid, key, jobs, label)
        if cache is not None:
            cache.put(key, plan)
        span.set(plan=plan.label, plan_cache_hit=False)
        _emit(tracer, key, geometry, plan, False)
        return plan


# ----------------------------------------------------------------------
def _evaluate(
    coo: COOMatrix,
    geometry: Geometry,
    params: HardwareParams,
    grid: List[Candidate],
    key: str,
    jobs: Optional[int],
    label: str,
) -> TuningPlan:
    """Price the grid through the sweep engine and pick the winner."""
    _perf.tuning_candidates += len(grid)
    # One schedule-stable layout per ordering; candidates share the
    # arrays by reference so the sweep hashes each buffer once.
    layouts: Dict[str, COOMatrix] = {}
    for ordering in sorted({c.ordering for c in grid}):
        perm = ordering_permutation(coo, ordering)
        layouts[ordering] = (
            coo if perm is None else permute_matrix(coo, perm, stable=True)
        )
    arrays_of = {o: coo_arrays(m) for o, m in layouts.items()}
    params_spec = None if params is DEFAULT_PARAMS else asdict(params)

    tasks: List[PricingTask] = []
    for cand in grid:
        m = layouts[cand.ordering]
        arrays = arrays_of[cand.ordering]
        shape = [int(m.n_rows), int(m.n_cols)]
        for mode in PROBE_MODES:
            payload = {
                "algorithm": "ip",
                "mode": mode,
                "geometry": geometry.name,
                "shape": shape,
                "frontiers": [{
                    "n": shape[1],
                    "density": 1.0,
                    "seed": TUNE_FRONTIER_SEED,
                }],
                "semiring": "spmv",
                "profile_only": True,
                "vblock_width": cand.vblock_width,
            }
            if params_spec is not None:
                payload["params"] = params_spec
            tasks.append(
                PricingTask("repro.parallel.work:price_config", payload, arrays)
            )

    scheduler = SweepScheduler(jobs=jobs, label=f"{label}.probes")
    results = scheduler.map(tasks)
    n_modes = len(PROBE_MODES)
    cycles = [
        min(float(r["points"][0]["cycles"]) for r in results[i : i + n_modes])
        for i in range(0, len(results), n_modes)
    ]
    # ``min`` keeps the first of equal values: identity wins every tie.
    best = min(range(len(grid)), key=cycles.__getitem__)

    # Deferred: importing at module level would race repro/__init__'s
    # own (late) ``__version__`` assignment during package import.
    from .. import __version__

    winner = grid[best]
    return TuningPlan(
        ordering=winner.ordering,
        vblock_width=winner.vblock_width,
        geometry=geometry.name,
        matrix_key=key,
        metrics={"cycles": cycles[best]},
        baseline={"cycles": cycles[0]},
        candidates=len(grid),
        version=__version__,
    )


def _emit(
    tracer, key: str, geometry: Geometry, plan: TuningPlan, cache_hit: bool
) -> None:
    if not tracer.enabled:
        return
    tracer.event(
        TuningEvent(
            matrix_key=key[:16],
            geometry=geometry.name,
            ordering=plan.ordering,
            vblock_width=plan.vblock_width,
            candidates=plan.candidates,
            plan_cache_hit=cache_hit,
            cycles=plan.metrics.get("cycles"),
            baseline_cycles=plan.baseline.get("cycles"),
        )
    )
