"""Lightweight performance instrumentation for the reproduction.

Two concerns live here:

* **Counters** — :data:`COUNTERS` names every process-global perf
  counter once; the kernels, the trace-replay engine and the sweep,
  tuning and cluster layers increment the matching attribute of
  :data:`counters` (``counters.x += n``).  Tests use them to pin
  invariants like "the oracle policy executes exactly one functional
  kernel per invocation".  Spans record their deltas, and a pool task's
  deltas ride back with its result, so totals do not depend on the
  worker count.
* **The microbench** — ``python -m repro.perf`` (the ``make perf``
  target) replays a 200k-access random trace through a 16-bank shared
  cache with every available engine, prints accesses/s per engine plus
  the speedup over the :class:`~repro.hardware.cache.ReferenceCacheBank`
  baseline, asserts the hit/miss/writeback counters are bit-identical,
  and emits one machine-readable JSON line for trajectory tracking.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict

__all__ = ["COUNTERS", "PerfCounters", "counters", "microbench", "main"]

#: Every perf counter: name -> what it counts.
COUNTERS: Dict[str, str] = {
    "kernel_executions": "kernel calls that computed the functional result",
    "kernel_profile_only": "kernel calls that built only the KernelProfile "
        "(profile_only pricing probes)",
    "kernel_batched_columns": "columns run by the batch kernels (each also "
        "counts in kernel_executions or kernel_profile_only)",
    "kernel_probe_discarded": "winning pricing probes of spmv_batch columns "
        "(oracle/adaptive), not reused; spmv reuses a probe only when it "
        "executed, which needs with_trace, and spmv_batch rejects with_trace, "
        "so this counts no extra work (docs/model.md §6b)",
    "trace_accesses": "words replayed through the batched cache engine",
    "pricing_tasks": "PricingTasks submitted to a SweepScheduler",
    "pricing_cache_hits": "submitted tasks the pricing cache answered (a "
        "warm sweep: hits == tasks, zero kernel_executions)",
    "pricing_cache_misses": "submitted tasks the pricing cache missed",
    "pricing_fallbacks": "pool runs that degraded to the serial path "
        "(worker death or timeout), once per run",
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


# ----------------------------------------------------------------------
# Trace-replay microbench
# ----------------------------------------------------------------------
def microbench(
    n: int = 200_000,
    n_banks: int = 16,
    seed: int = 0,
    footprint_words: int = 1 << 20,
    write_fraction: float = 0.3,
    repeats: int = 3,
    include_reference: bool = True,
) -> dict:
    """Replay one random trace through every engine; return measurements.

    Engines: ``reference`` (the per-word ``OrderedDict`` simulator),
    ``numpy`` (the batched engine with the native path disabled), and
    ``native`` (the compiled kernel, when a host toolchain exists).  All
    engines must produce bit-identical (hits, misses, writebacks).
    """
    import numpy as np

    from .hardware import _native
    from .hardware.cache import BankedCache, ReferenceCacheBank
    from .hardware.params import DEFAULT_PARAMS

    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, footprint_words, n).astype(np.int64)
    writes = rng.random(n) < write_fraction
    params = DEFAULT_PARAMS
    sets = params.cache_sets_per_bank * n_banks

    def best_of(make, runs):
        best = None
        cache = None
        for _ in range(max(runs, 1)):
            cache = make()
            t0 = time.perf_counter()
            cache.run_trace(addrs, writes)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, (cache.hits, cache.misses, cache.writebacks)

    engines: Dict[str, dict] = {}

    if include_reference:
        sec, cnt = best_of(
            lambda: ReferenceCacheBank(params, sets_override=sets), runs=1
        )
        engines["reference"] = _engine_row(n, sec, cnt)

    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        best_of(lambda: BankedCache(n_banks, params), runs=1)  # warm numpy
        sec, cnt = best_of(lambda: BankedCache(n_banks, params), runs=repeats)
        engines["numpy"] = _engine_row(n, sec, cnt)
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved

    if _native.available():
        best_of(lambda: BankedCache(n_banks, params), runs=1)  # warm native
        sec, cnt = best_of(lambda: BankedCache(n_banks, params), runs=repeats)
        engines["native"] = _engine_row(n, sec, cnt)

    all_counters = {tuple(e["counters"]) for e in engines.values()}
    result = {
        "bench": "trace_replay",
        "n_accesses": n,
        "n_banks": n_banks,
        "footprint_words": footprint_words,
        "write_fraction": write_fraction,
        "engines": engines,
        "counters_identical": len(all_counters) == 1,
    }
    if include_reference:
        base = engines["reference"]["seconds"]
        for name, row in engines.items():
            row["speedup_vs_reference"] = round(base / row["seconds"], 2)
    return result


def _engine_row(n: int, seconds: float, cnt) -> dict:
    return {
        "seconds": round(seconds, 6),
        "macc_per_s": round(n / seconds / 1e6, 3),
        "counters": [int(c) for c in cnt],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Trace-replay microbench (see `make perf`).",
    )
    parser.add_argument("--n", type=int, default=200_000,
                        help="trace length in word accesses (default 200000)")
    parser.add_argument("--banks", type=int, default=16,
                        help="shared-cache bank count (default 16)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per engine, best-of (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the slow OrderedDict baseline")
    args = parser.parse_args(argv)

    result = microbench(
        n=args.n,
        n_banks=args.banks,
        seed=args.seed,
        repeats=args.repeats,
        include_reference=not args.no_reference,
    )
    for name, row in result["engines"].items():
        speedup = row.get("speedup_vs_reference")
        extra = f"  ({speedup:g}x vs reference)" if speedup else ""
        print(
            f"{name:>9}: {row['macc_per_s']:8.2f} M acc/s "
            f"({row['seconds'] * 1e3:8.2f} ms){extra}"
        )
    ok = result["counters_identical"]
    print(f"counters identical across engines: {ok}")
    print(json.dumps(result, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
