"""Locality autotuner bench: tuned vs identity, plan-cache warm path.

Runs the full candidate grid on two suite matrices whose vectors
overflow the modelled 16k-word tile cache (a 131k-vertex Fig. 7
power-law graph and a 65k-vertex Fig. 4 uniform matrix), then:

* asserts the tuned plan's modelled probe cycles — the number a tuned
  run reports — never exceed the identity baseline's, and are strictly
  fewer on at least two matrices,
* asserts a tuned driver run is bit-identical to the untuned run in
  original vertex ids,
* asserts a warm re-tune of both matrices executes ZERO pricing kernels
  (plan cache short-circuits the evaluation entirely),

and persists per-matrix probe cycles plus the warm-run plan-cache hit
rate into the bench JSON (``artifacts/ablation-tune``) for the perf
trajectory.
"""

import numpy as np
from conftest import show

from repro.experiments.common import fig4_matrix, fig7_matrix
from repro.experiments.report import ExperimentResult
from repro.graphs import Graph, bfs
from repro.perf import counters
from repro.tune import autotune

#: Matrices on which the tuned plan must price strictly below identity.
MIN_CYCLE_WINS = 2


def test_tuning_ablation(once, full, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_PRICING_CACHE", "1")
    monkeypatch.setenv("REPRO_TUNE_CACHE", "1")
    monkeypatch.delenv("REPRO_JOBS", raising=False)

    if full:
        suite = [
            ("fig7-0", lambda: fig7_matrix(0, scale=1)),
            ("fig7-1", lambda: fig7_matrix(1, scale=1)),
            ("fig4-0", lambda: fig4_matrix(0, scale=1)),
        ]
    else:
        suite = [
            ("fig7-0", lambda: fig7_matrix(0, scale=1)),
            ("fig4-0/2", lambda: fig4_matrix(0, scale=2)),
        ]
    out = {}

    def run():
        result = ExperimentResult(
            "ablation-tune",
            "locality autotuner vs identity layout (8x16)",
            [
                "matrix",
                "n",
                "nnz",
                "plan",
                "base_cycles",
                "tuned_cycles",
            ],
        )
        matrices = {}
        counters.reset()
        for name, build in suite:
            m = matrices[name] = build()
            plan = autotune(m)
            result.add(
                matrix=name,
                n=m.n_rows,
                nnz=m.nnz,
                plan=plan.label,
                base_cycles=plan.baseline["cycles"],
                tuned_cycles=plan.metrics["cycles"],
            )
        out["cold_tasks"] = counters.pricing_tasks

        # Warm path: re-tuning every matrix must be pure plan-cache
        # hits — zero candidates evaluated, zero pricing kernels run.
        counters.reset()
        for name, _ in suite:
            autotune(matrices[name])
        out["warm_plan_cache_hits"] = counters.tuning_plan_cache_hits
        out["warm_pricing_tasks"] = counters.pricing_tasks
        out["warm_kernels"] = (
            counters.kernel_executions + counters.kernel_profile_only
        )

        # A tuned driver must be invisible in original vertex ids
        # (checked on a scaled-down graph: identity is scale-free and
        # the driver's own autotune stays cheap).
        g = Graph(fig7_matrix(0, scale=8), name="fig7-0/8")
        base = bfs(g, 0).values
        tuned = bfs(g, 0, auto_tune=True).values
        out["driver_bit_identical"] = bool(
            np.array_equal(base, tuned, equal_nan=True)
        )

        result.timings["cold_pricing_tasks"] = out["cold_tasks"]
        result.timings["plan_cache_hit_rate"] = (
            out["warm_plan_cache_hits"] / len(suite)
        )
        result.timings["warm_pricing_tasks"] = out["warm_pricing_tasks"]
        return result

    result = once(run)
    show(result)

    # --- autotuner guarantees, asserted unconditionally ---------------
    for row in result.rows:
        assert row["tuned_cycles"] <= row["base_cycles"], row["matrix"]
    wins = sum(r["tuned_cycles"] < r["base_cycles"] for r in result.rows)
    assert wins >= MIN_CYCLE_WINS, f"fewer cycles on only {wins} matrices"
    assert out["warm_plan_cache_hits"] == len(suite)
    assert out["warm_pricing_tasks"] == 0
    assert out["warm_kernels"] == 0
    assert out["driver_bit_identical"]
