"""The locality autotuner: pick a per-matrix layout plan.

:func:`autotune` evaluates the candidate grid (ordering × vblock width
× storage) by pricing three representative SpMV probes per candidate
through the parallel sweep engine:

* analytic pricing (``price_config``, IP kernel, full frontier) in both
  SC and SCS hardware modes, with the candidate's vblock width — the
  modelled cycle cost;
* the trace-mode cache probe — the modelled vector-gather hit rate;
* the functional wall-clock probe — real host SpMV time over the
  candidate's stream order.

All probes are cacheable pricing tasks, so a warm re-tune of an
unchanged matrix executes zero kernels even when the plan cache is
disabled — and with the plan cache (default), the whole evaluation is
skipped outright.

Selection is conservative: a candidate is *eligible* only if it is no
worse than the identity baseline on modelled hit rate, functional wall
clock and (within a small slack) modelled cycles.  Among eligible
candidates the one with the best combined hit-rate/wall-clock score
wins; if none qualifies the identity plan is returned.  A tuned run can
therefore never lose to the untuned baseline on the tuner's own
metrics.
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

#: Hit-rate comparisons tolerate this much float noise.
HIT_RATE_EPS = 1e-9

#: Eligible candidates may cost up to this factor of the baseline's
#: modelled cycles (layout changes shift the analytic profile slightly
#: even when locality clearly improves).
CYCLES_SLACK = 1.05


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
    storages: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    use_plan_cache: Optional[bool] = None,
    passes: Optional[int] = None,
    label: str = "tune",
) -> TuningPlan:
    """Tune ``matrix`` for ``geometry``; returns the winning plan.

    Parameters mirror :func:`~repro.tune.candidates.candidate_grid`
    (``orderings``/``widths``/``storages`` restrict the grid), plus
    ``jobs`` (sweep worker count), ``use_plan_cache`` (override the
    ``REPRO_TUNE_CACHE`` switch) and ``passes`` (wall-probe best-of
    count).  The identity baseline is always evaluated.
    """
    coo = _as_coo(matrix)
    if isinstance(geometry, str):
        geometry = Geometry.parse(geometry)
    grid = candidate_grid(geometry, params, orderings, widths, storages)
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
        plan = _evaluate(coo, geometry, params, grid, key, jobs, passes, label)
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
    passes: Optional[int],
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
    slots: List[Tuple[int, str]] = []
    for i, cand in enumerate(grid):
        m = layouts[cand.ordering]
        arrays = arrays_of[cand.ordering]
        shape = [int(m.n_rows), int(m.n_cols)]
        for mode in PROBE_MODES:
            payload = {
                "algorithm": "ip",
                "mode": mode,
                "geometry": geometry.name,
                "shape": shape,
                "frontier": {
                    "n": shape[1],
                    "density": 1.0,
                    "seed": TUNE_FRONTIER_SEED,
                },
                "semiring": "spmv",
                "profile_only": True,
                "vblock_width": cand.vblock_width,
            }
            if params_spec is not None:
                payload["params"] = params_spec
            tasks.append(
                PricingTask("repro.parallel.work:price_config", payload, arrays)
            )
            slots.append((i, f"cycles_{mode}"))
        cache_payload = {
            "geometry": geometry.name,
            "vblock_width": cand.vblock_width,
            "storage": cand.storage,
        }
        if params_spec is not None:
            cache_payload["params"] = params_spec
        tasks.append(
            PricingTask("repro.tune.probe:cache_probe", cache_payload, arrays)
        )
        slots.append((i, "hit_rate"))
        wall_payload = {
            "vblock_width": cand.vblock_width,
            "storage": cand.storage,
            "shape": shape,
        }
        if passes is not None:
            wall_payload["passes"] = int(passes)
        tasks.append(
            PricingTask("repro.tune.probe:wall_probe", wall_payload, arrays)
        )
        slots.append((i, "wall_s"))

    scheduler = SweepScheduler(jobs=jobs, label=f"{label}.probes")
    results = scheduler.map(tasks)

    metrics: List[Dict[str, float]] = [{} for _ in grid]
    for (i, kind), res in zip(slots, results):
        if kind.startswith("cycles_"):
            metrics[i][kind] = float(res["cycles"])
        else:
            metrics[i][kind] = float(res[kind])
    for m in metrics:
        m["cycles"] = min(m.pop(f"cycles_{mode}") for mode in PROBE_MODES)

    # Deferred: importing at module level would race repro/__init__'s
    # own (late) ``__version__`` assignment during package import.
    from .. import __version__

    best = _select(grid, metrics)
    winner = grid[best]
    return TuningPlan(
        ordering=winner.ordering,
        vblock_width=winner.vblock_width,
        storage=winner.storage,
        geometry=geometry.name,
        matrix_key=key,
        metrics=dict(metrics[best]),
        baseline=dict(metrics[0]),
        candidates=len(grid),
        version=__version__,
    )


def _select(grid: List[Candidate], metrics: List[Dict[str, float]]) -> int:
    """Index of the winning candidate (0 = identity baseline).

    Eligibility demands dominance over the baseline: hit rate no worse,
    wall clock no worse, cycles within :data:`CYCLES_SLACK`.  Ties and
    empty eligible sets fall back to the baseline.
    """
    base = metrics[0]
    best_i, best_score = 0, 0.0
    for i in range(1, len(grid)):
        m = metrics[i]
        if m["hit_rate"] < base["hit_rate"] - HIT_RATE_EPS:
            continue
        if m["wall_s"] > base["wall_s"]:
            continue
        if m["cycles"] > base["cycles"] * CYCLES_SLACK:
            continue
        score = (m["hit_rate"] - base["hit_rate"]) + (
            base["wall_s"] / m["wall_s"] - 1.0
        )
        if score > best_score:
            best_i, best_score = i, score
    return best_i


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
            storage=plan.storage,
            candidates=plan.candidates,
            plan_cache_hit=cache_hit,
            hit_rate=plan.metrics.get("hit_rate"),
            baseline_hit_rate=plan.baseline.get("hit_rate"),
            wall_s=plan.metrics.get("wall_s"),
            baseline_wall_s=plan.baseline.get("wall_s"),
        )
    )
