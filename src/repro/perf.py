"""Process-global performance counters for the reproduction.

:data:`COUNTERS` names every perf counter once; the kernels, the
hardware model and the sweep, tuning and cluster layers increment
the matching attribute of :data:`counters` (``counters.x += n``).  Tests
use them to pin invariants like "the oracle policy executes exactly one
functional kernel per invocation".  Spans record their deltas, and a
pool task's deltas ride back with its result, so totals do not depend on
the worker count.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["COUNTERS", "PerfCounters", "counters"]

#: Every perf counter: name -> what it counts.
COUNTERS: Dict[str, str] = {
    "kernel_executions": "kernel calls that computed the functional result",
    "kernel_profile_only": "kernel calls that built only the KernelProfile "
        "(profile_only pricing probes)",
    "kernel_batched_columns": "columns run by the batch kernels (each also "
        "counts in kernel_executions or kernel_profile_only)",
    "kernel_counted_columns": "uniform min-semiring IP columns whose "
        "accounting and values came from one count of active entries per "
        "(row, vblock) cell, with no gather or scatter (docs/model.md §6l); "
        "each also counts in kernel_executions",
    "kernel_probe_discarded": "winning pricing probes of spmv_batch columns "
        "(oracle/adaptive), dropped once priced; a probe builds only a "
        "profile and spmv drops its own too, so this counts no extra work "
        "(docs/model.md §6b)",
    "pricing_tasks": "PricingTasks submitted to a SweepScheduler",
    "pricing_cache_hits": "submitted tasks the pricing cache answered (a "
        "warm sweep: hits == tasks, zero kernel_executions)",
    "pricing_cache_misses": "submitted tasks the pricing cache missed",
    "pricing_fallbacks": "pool runs that degraded to the serial path "
        "(worker death or timeout), once per run",
    "pricing_solves": "stacked solves of the analytic model (one "
        "AnalyticModel.evaluate call with at least one profile)",
    "pricing_profiles": "kernel profiles those solves priced (a sweep row "
        "or a batch group prices all of its profiles in one solve)",
    "tuning_runs": "autotune calls (plan-cache hits included)",
    "tuning_candidates": "candidate configurations evaluated (zero on a "
        "warm plan-cache hit)",
    "tuning_plan_cache_hits": "tuning-plan cache hits (a warm re-tune: one "
        "hit, zero candidates, pricing tasks and kernel executions)",
    "tuning_plan_cache_misses": "tuning-plan cache misses",
    "tuning_plans_applied": "non-identity TuningPlans wired into a runtime "
        "operand",
    "cluster_spmv_calls": "ShardedRuntime.spmv calls (one per cluster "
        "iteration)",
    "cluster_shard_tasks": "shard steps of ShardedRuntime.spmv calls (K "
        "per call, serial or pooled)",
    "cluster_exchange_bytes": "modeled frontier-exchange bytes charged "
        "through the cluster interconnect",
}


class PerfCounters:
    """Process-global counters: one ``int`` attribute per
    :data:`COUNTERS` name."""

    __slots__ = tuple(COUNTERS)

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Zero everything (tests bracket measurements with this)."""
        for name in COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A plain name -> int copy (safe to stash and diff)."""
        return {name: getattr(self, name) for name in COUNTERS}

    def since(self, before: Dict[str, int]) -> Dict[str, int]:
        """The non-zero changes since the :meth:`snapshot` ``before``."""
        deltas = {}
        for name, was in before.items():
            diff = getattr(self, name) - was
            if diff:
                deltas[name] = diff
        return deltas

    def add(self, deltas: Dict[str, int]) -> None:
        """Add :meth:`since` deltas (a pool task's) to these counters."""
        for name, diff in deltas.items():
            setattr(self, name, getattr(self, name) + diff)


#: The process-global instance every subsystem increments.
counters = PerfCounters()
