"""Fig. 4 — speedup of OP (PC) vs. IP (SC) across vector densities.

Paper setup: uniform matrices with 4M non-zeros at N = 131k..1M, vector
densities 0.0025..0.04, systems 4x8..8x32.  Expected shape: "IP performs
better for dense vectors and OP performs better for sparse vectors.  The
crossover vector density decreases when more PEs are present in a tile"
— from ~2 % at 8 PEs/tile to ~0.5 % at 32.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.calibration import SweepPoint, find_crossover_density
from ..hardware import HWMode
from ..workloads import FIG4_DENSITIES, cached_csc
from .common import fig4_key, fig4_matrix, price_task, sweep_tasks
from .report import ExperimentResult

__all__ = ["run_fig4", "crossover_table", "FULL_GEOMETRIES", "QUICK_GEOMETRIES"]

FULL_GEOMETRIES = ("4x8", "4x16", "4x32", "8x8", "8x16", "8x32")
QUICK_GEOMETRIES = ("4x8", "4x16", "4x32")


def run_fig4(
    scale: int = 1,
    geometries: Sequence[str] = FULL_GEOMETRIES,
    densities: Sequence[float] = FIG4_DENSITIES,
    matrices: Sequence[int] = (0, 1, 2, 3),
    seed: int = 7,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate the Fig. 4 sweep; one row per (matrix, system, d_v).

    The grid is decomposed into pure pricing tasks and executed by a
    :class:`~repro.parallel.scheduler.SweepScheduler` (``jobs`` /
    ``REPRO_JOBS`` workers, persistent pricing cache); rows are
    assembled in grid order, bit-identical for any worker count.
    """
    result = ExperimentResult(
        experiment="fig4",
        title="Speedup of OP (PC) vs. IP (SC)",
        columns=[
            "N",
            "matrix_density",
            "system",
            "vector_density",
            "ip_cycles",
            "op_cycles",
            "op_vs_ip_speedup",
        ],
        notes=f"uniform matrices, scale=1/{scale}",
    )
    tasks, meta = [], []
    for mi in matrices:
        coo = fig4_matrix(mi, scale=scale)
        memo = {"use_partition": True, "token": fig4_key(mi, scale)}
        csc = cached_csc(coo)
        for geom_name in geometries:
            for i, d in enumerate(densities):
                spec = {"n": coo.n_cols, "density": d, "seed": seed + 13 * i}
                tasks.append(
                    price_task("ip", HWMode.SC, geom_name, coo, spec, **memo)
                )
                tasks.append(
                    price_task("op", HWMode.PC, geom_name, csc, spec, **memo)
                )
                meta.append((coo.n_cols, coo.density, geom_name, d))
    reports = sweep_tasks(tasks, "fig4", jobs)
    for (n, m_density, geom_name, d), ip, op in zip(
        meta, reports[0::2], reports[1::2]
    ):
        result.add(
            N=n,
            matrix_density=m_density,
            system=geom_name,
            vector_density=d,
            ip_cycles=ip["cycles"],
            op_cycles=op["cycles"],
            op_vs_ip_speedup=ip["cycles"] / op["cycles"],
        )
    return result


def crossover_table(sweep: ExperimentResult) -> ExperimentResult:
    """The crossover vector density (CVD) per (matrix, system).

    This is the Section III-C1 takeaway Fig. 4 exists to support.
    """
    result = ExperimentResult(
        experiment="fig4-cvd",
        title="Crossover vector density per matrix and system",
        columns=["N", "system", "cvd"],
    )
    groups = {}
    for row in sweep.rows:
        groups.setdefault((row["N"], row["system"]), []).append(
            SweepPoint(
                vector_density=row["vector_density"],
                baseline_cycles=row["ip_cycles"],
                candidate_cycles=row["op_cycles"],
            )
        )
    for (n, system), points in groups.items():
        cvd = find_crossover_density(points)
        result.add(N=n, system=system, cvd=cvd if cvd is not None else float("nan"))
    return result
