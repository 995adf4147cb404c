"""Per-matrix locality autotuning (the OSKI move, CoSPARSE-flavoured).

Given a matrix and a hardware geometry, :func:`~repro.tune.tuner.autotune`
prices a small candidate grid — vertex ordering × vertical-block width —
through the parallel sweep engine and returns the
:class:`~repro.tune.plan.TuningPlan` with the fewest modelled cycles,
the identity baseline winning every tie.  Plans persist in a
content-addressed cache (``REPRO_CACHE_DIR/tune/``), and every probe is
itself a cacheable pricing task, so re-tuning an unchanged matrix is
free.

The runtime consumes plans directly: ``CoSparseRuntime(...,
auto_tune=True)`` (or an explicit ``plan=``) permutes its operand into
the plan's schedule-stable layout, and the graph drivers map frontiers
and results through the permutation so outputs stay bit-identical to
untuned runs in original vertex ids.
"""

from .candidates import (
    Candidate,
    ORDERINGS,
    candidate_grid,
    default_widths,
    ordering_permutation,
)
from .plan import (
    TUNE_CACHE_SCHEMA,
    PlanCache,
    TuningPlan,
    plan_cache_enabled,
    plan_key,
)
from .tuner import DEFAULT_TUNE_GEOMETRY, TUNE_FRONTIER_SEED, autotune

__all__ = [
    "Candidate",
    "ORDERINGS",
    "candidate_grid",
    "default_widths",
    "ordering_permutation",
    "TUNE_CACHE_SCHEMA",
    "PlanCache",
    "TuningPlan",
    "plan_cache_enabled",
    "plan_key",
    "DEFAULT_TUNE_GEOMETRY",
    "TUNE_FRONTIER_SEED",
    "autotune",
]
