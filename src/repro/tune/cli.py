"""``python -m repro.tune`` — drive the locality autotuner directly.

Subcommands::

    python -m repro.tune tune --fig7 2 --scale 4        # tune one matrix
    python -m repro.tune tune --graph twitter           # tune a graph suite entry
    python -m repro.tune show                           # list cached plans
    python -m repro.tune clear                          # empty the plan cache
    python -m repro.tune smoke                          # hermetic self-check

``show``/``clear`` operate on the plan cache under
``REPRO_CACHE_DIR/tune/``.  ``smoke`` tunes a small synthetic graph
three times inside a temporary cache directory: cold, warm (which must
hit the plan cache and execute zero probe kernels), and with the plan
and pricing caches off (which must recompute every probe and return
the cold plan) — the fast end-to-end check wired into ``make test``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

__all__ = ["main", "build_parser"]

#: Smoke-test workload: small enough for seconds, structured enough
#: (power-law) that the tuner has real locality to find.
SMOKE_VERTICES = 2000
SMOKE_EDGES = 20000
SMOKE_SEED = 7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tune",
        description="Tune per-matrix locality plans (ordering, vblock "
        "width) and manage the plan cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="tune one matrix and print the plan")
    source = tune.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--graph",
        metavar="NAME",
        help="a Table III graph-suite entry (e.g. twitter)",
    )
    source.add_argument(
        "--fig7",
        type=int,
        metavar="IDX",
        help="power-law matrix IDX of the Fig. 7 suite",
    )
    source.add_argument(
        "--fig4",
        type=int,
        metavar="IDX",
        help="uniform matrix IDX of the Figs. 4-6 suite",
    )
    tune.add_argument(
        "--scale",
        type=int,
        default=8,
        help="workload divisor (1 = paper scale; default 8)",
    )
    tune.add_argument(
        "--geometry",
        default="8x16",
        help="hardware geometry to tune for (default 8x16)",
    )
    tune.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="probe worker processes (default: REPRO_JOBS, else cpu count)",
    )
    tune.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the plan cache (probes may still hit the pricing cache)",
    )

    sub.add_parser("show", help="list cached tuning plans")
    sub.add_parser("clear", help="delete every cached tuning plan")
    sub.add_parser(
        "smoke",
        help="hermetic cold/warm/uncached tuning self-check (temporary cache)",
    )
    return parser


# ----------------------------------------------------------------------
def _resolve_matrix(args):
    """The requested matrix plus a human-readable label."""
    from ..experiments.common import fig4_matrix, fig7_matrix, table3_graph

    if args.graph is not None:
        graph = table3_graph(args.graph, scale=max(args.scale, 16))
        return graph.operand.coo, graph.name
    if args.fig7 is not None:
        return fig7_matrix(args.fig7, scale=args.scale), f"fig7[{args.fig7}]"
    return fig4_matrix(args.fig4, scale=args.scale), f"fig4[{args.fig4}]"


def _print_plan(label: str, plan) -> None:
    print(f"{label}: plan {plan.label} (geometry {plan.geometry})")
    print(
        f"  modelled probe cycles {plan.metrics['cycles']:.1f} "
        f"vs identity {plan.baseline['cycles']:.1f}"
    )
    print(f"  candidates evaluated: {plan.candidates}")


def _cmd_tune(args) -> int:
    from .tuner import autotune

    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(max(1, args.jobs))
    matrix, label = _resolve_matrix(args)
    plan = autotune(
        matrix,
        geometry=args.geometry,
        use_plan_cache=None if not args.no_cache else False,
    )
    _print_plan(label, plan)
    return 0


def _cmd_show() -> int:
    from .plan import PlanCache

    cache = PlanCache()
    rows = list(cache.entries())
    if not rows:
        print(f"no tuning plans cached under {cache.dir}")
        return 0
    print(f"{len(rows)} plan(s) under {cache.dir}:")
    for key, plan in rows:
        print(f"  {key[:16]}  {plan.geometry:>6}  {plan.label}")
    return 0


def _cmd_clear() -> int:
    from .plan import PlanCache

    cache = PlanCache()
    removed = cache.clear()
    print(f"removed {removed} plan(s) from {cache.dir}")
    return 0


def _cmd_smoke() -> int:
    """Cold, warm and uncached tunes in a throwaway cache; check the
    counters and that all three agree on the plan."""
    from ..perf import counters as perf
    from ..workloads.synthetic import chung_lu
    from .tuner import PROBE_MODES, autotune

    matrix = chung_lu(SMOKE_VERTICES, SMOKE_EDGES, seed=SMOKE_SEED)
    saved = {
        name: os.environ.get(name)
        for name in ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_PRICING_CACHE")
    }
    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-tune-smoke-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        os.environ["REPRO_JOBS"] = "1"
        try:
            perf.reset()
            cold = autotune(matrix)
            if perf.tuning_plan_cache_hits:
                failures.append("cold tune hit the plan cache")
            if not perf.tuning_candidates:
                failures.append("cold tune evaluated no candidates")
            perf.reset()
            warm = autotune(matrix)
            if perf.tuning_plan_cache_hits != 1:
                failures.append("warm tune missed the plan cache")
            if perf.tuning_candidates or perf.pricing_tasks:
                failures.append("warm tune executed probe work")
            if warm.to_dict() != cold.to_dict():
                failures.append("warm plan differs from cold plan")
            os.environ["REPRO_PRICING_CACHE"] = "0"
            perf.reset()
            fresh = autotune(matrix, use_plan_cache=False)
            probes = len(PROBE_MODES) * cold.candidates
            if perf.kernel_profile_only != probes or perf.pricing_cache_hits:
                failures.append("uncached tune did not recompute every probe")
            if fresh.to_dict() != cold.to_dict():
                failures.append("uncached plan differs from cold plan")
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    if failures:
        for failure in failures:
            print(f"tune smoke FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"tune smoke ok: plan {cold.label} ({cold.candidates} candidates; "
        "warm re-tune hit the plan cache, uncached re-tune agreed)"
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "show":
        return _cmd_show()
    if args.command == "clear":
        return _cmd_clear()
    return _cmd_smoke()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
