"""Fig. 6 — speedup of PS vs. PC for the outer product.

Paper takeaway: "The performance gain of PS grows with increasing vector
density, increasing number of tiles, and decreasing number of PEs per
tile"; PC wins (slightly) while the sorted list still fits in a PE's
private L1 bank.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..hardware import Geometry, HWMode
from ..workloads import FIG4_DENSITIES, cached_csc
from .common import fig4_key, fig4_matrix, price_task, sweep_tasks
from .report import ExperimentResult

__all__ = ["run_fig6", "FIG6_GEOMETRIES"]

FIG6_GEOMETRIES = ("4x8", "4x16", "8x8", "8x16")


def run_fig6(
    scale: int = 1,
    geometries: Sequence[str] = FIG6_GEOMETRIES,
    densities: Sequence[float] = FIG4_DENSITIES,
    matrices: Sequence[int] = (0, 1, 2, 3),
    seed: int = 5,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate the Fig. 6 sweep; one row per (matrix, system, d_v)."""
    result = ExperimentResult(
        experiment="fig6",
        title="Speedup of PS vs. PC for OP",
        columns=[
            "N",
            "system",
            "vector_density",
            "heap_words_per_pe",
            "pc_cycles",
            "ps_cycles",
            "ps_gain_pct",
        ],
        notes=f"uniform matrices, scale=1/{scale}",
    )
    tasks, meta = [], []
    for mi in matrices:
        coo = fig4_matrix(mi, scale=scale)
        memo = {"use_partition": True, "token": fig4_key(mi, scale)}
        csc = cached_csc(coo)
        for geom_name in geometries:
            geometry = Geometry.parse(geom_name)
            for i, d in enumerate(densities):
                spec = {"n": coo.n_cols, "density": d, "seed": seed + 19 * i}
                tasks.append(
                    price_task("op", HWMode.PC, geom_name, csc, spec, **memo)
                )
                tasks.append(
                    price_task("op", HWMode.PS, geom_name, csc, spec, **memo)
                )
                heap_words = 2.0 * coo.n_cols * d / geometry.pes_per_tile
                meta.append((coo.n_cols, geom_name, d, heap_words))
    reports = sweep_tasks(tasks, "fig6", jobs)
    for (n, geom_name, d, heap_words), pc, ps in zip(
        meta, reports[0::2], reports[1::2]
    ):
        result.add(
            N=n,
            system=geom_name,
            vector_density=d,
            heap_words_per_pe=heap_words,
            pc_cycles=pc["cycles"],
            ps_cycles=ps["cycles"],
            ps_gain_pct=100.0 * (pc["cycles"] / ps["cycles"] - 1.0),
        )
    return result
