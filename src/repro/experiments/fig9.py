"""Fig. 9 — the SSSP-on-pokec per-iteration case study.

The paper's table lists, for every SSSP iteration on pokec (16x16
system): the frontier density, the execution time of all five priced
configurations (IP: SC, SCS; OP: SC, PC, PS) normalised to IP/SC, and
the chosen software/hardware configuration.  The co-reconfigured run
nets 1.51x over the no-reconfiguration baseline (IP in SC throughout);
"the combined software and hardware reconfiguration achieves a speedup
of up to 2.0x across different algorithms and input graphs".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..formats import SparseVector
from ..hardware import Geometry, HWMode, TransmuterSystem
from ..obs.tracer import active as _obs_active
from ..parallel import PricingTask, SweepScheduler
from ..parallel.work import coo_arrays, csc_arrays
from ..spmv import inner_product, sssp_semiring
from .common import PRICE_FN, table3_graph
from .report import ExperimentResult

__all__ = ["run_fig9"]

#: The five columns of the paper's table.
_CONFIGS = (
    ("ip", HWMode.SC),
    ("ip", HWMode.SCS),
    ("op", HWMode.SC),
    ("op", HWMode.PC),
    ("op", HWMode.PS),
)


def _iteration_tasks(operand, frontier, dist, geometry_name, token):
    """The five profile-only pricing tasks of one SSSP iteration.

    Pricing rides the scheduler (cacheable, profile-only — cycle parity
    with the executed kernel is pinned by tests/core/test_profile_only);
    the functional frontier advance happens once, driver-side.
    """
    coo = operand.coo
    f_arrays = {
        "frontier_idx": frontier.indices,
        "frontier_vals": frontier.values,
        "current": dist,
    }
    tasks = []
    for algorithm, mode in _CONFIGS:
        payload = {
            "algorithm": algorithm,
            "mode": mode.name,
            "geometry": geometry_name,
            "shape": [coo.n_rows, coo.n_cols],
            "frontier": {"n": frontier.n},
            "semiring": "sssp",
            "profile_only": True,
            "use_partition": True,
            "token": token,
        }
        if algorithm == "ip":
            arrays = {**coo_arrays(coo), **f_arrays}
        else:
            arrays = {**csc_arrays(operand.csc), **f_arrays}
        tasks.append(PricingTask(PRICE_FN, payload, arrays))
    return tasks


def run_fig9(
    scale: int = 16,
    geometry_name: str = "16x16",
    graph_name: str = "pokec",
    source: int = 0,
    max_iters: int = 40,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate the Fig. 9 table; one row per SSSP iteration.

    ``source`` defaults to vertex 0; the driver re-seeds to the highest
    out-degree vertex when 0 has no out-edges, so the traversal actually
    swells.
    """
    geometry = Geometry.parse(geometry_name)
    graph = table3_graph(graph_name, scale=scale)
    operand = graph.operand
    system = TransmuterSystem(geometry)
    semiring = sssp_semiring()
    if graph.out_degrees()[source] == 0:
        source = int(np.argmax(graph.out_degrees()))
    n = graph.n_vertices
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = SparseVector(
        n, np.asarray([source], dtype=np.int64), np.asarray([0.0])
    )
    result = ExperimentResult(
        experiment="fig9",
        title=f"SSSP on {graph.name}: per-iteration configs ({geometry_name})",
        columns=[
            "iteration",
            "vector_density",
            "IP/SC",
            "IP/SCS",
            "OP/SC",
            "OP/PC",
            "OP/PS",
            "best_sw",
            "best_hw",
        ],
    )
    best_total = 0.0
    baseline_total = 0.0
    switches = 0
    prev_best = None
    tracer = _obs_active()
    scheduler = SweepScheduler(jobs=jobs, label="fig9")
    token = f"fig9:{graph_name}@{scale}"
    for it in range(max_iters):
        if frontier.nnz == 0:
            break
        with tracer.span(
            "fig9.iteration", iteration=it, vector_density=frontier.density
        ) as sp:
            reports = scheduler.map(
                _iteration_tasks(operand, frontier, dist, geometry_name, token)
            )
            cycles = {c: r["cycles"] for c, r in zip(_CONFIGS, reports)}
            # One functional execution advances the SSSP state (the
            # result is identical under every config, so IP/SC serves).
            dense = np.full(n, semiring.absent)
            dense[frontier.indices] = frontier.values
            kern_best = inner_product(
                operand.coo,
                dense,
                semiring,
                geometry,
                HWMode.SC,
                current=dist,
                partition=operand.ip_partition(geometry),
            )
            sp.set(
                **{
                    f"{alg.upper()}/{mode.label}": c
                    for (alg, mode), c in cycles.items()
                }
            )
        base = cycles[("ip", HWMode.SC)]
        best = min(cycles, key=cycles.get)
        # The paper's runtime only ever *selects* the Fig. 2 configs
        # (OP runs private); OP/SC is priced for the table only.
        selectable = {c: v for c, v in cycles.items() if c != ("op", HWMode.SC)}
        chosen = min(selectable, key=selectable.get)
        best_total += selectable[chosen]
        baseline_total += base
        if prev_best is not None and chosen != prev_best:
            switches += 1
        prev_best = chosen
        result.add(
            iteration=it,
            vector_density=frontier.density,
            **{
                "IP/SC": 1.0,
                "IP/SCS": cycles[("ip", HWMode.SCS)] / base,
                "OP/SC": cycles[("op", HWMode.SC)] / base,
                "OP/PC": cycles[("op", HWMode.PC)] / base,
                "OP/PS": cycles[("op", HWMode.PS)] / base,
            },
            best_sw=chosen[0].upper(),
            best_hw=chosen[1].label,
        )
        # advance the SSSP state (identical under every config)
        improved = kern_best.values < dist
        dist = kern_best.values
        idx = np.nonzero(improved)[0]
        frontier = SparseVector(n, idx, dist[idx], sort=False, check=False)
    reconfig_cycles = switches * system.params.reconfig_cycles
    net = baseline_total / (best_total + reconfig_cycles)
    result.notes = (
        f"net speedup of co-reconfiguration over IP/SC-only: {net:.2f}x "
        f"({switches} reconfigurations, paper: 1.51x on full-size pokec)"
    )
    return result
