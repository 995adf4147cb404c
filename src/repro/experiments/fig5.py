"""Fig. 5 — speedup of SCS vs. SC for the inner product.

Paper takeaway: "The speedup of SCS is positively correlated to vector
density as well as the number of times that the vector elements stored
in the SPM are reused" (``Nreuse = N*r*P/T``); the sparsest (largest)
matrix shows the least gain, and more tiles reduce the gain.

The paper sweeps the same 0.0025..0.04 densities as Fig. 4; because the
SCS-vs-SC contrast also matters at the dense end (Fig. 9 picks SCS at
27-47 % density), the driver extends the sweep to 1.0 — the paper range
is the prefix.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.decision import DecisionTree, MatrixInfo
from ..hardware import Geometry, HWMode
from .common import fig4_key, fig4_matrix, price_task, sweep_tasks
from .report import ExperimentResult

__all__ = ["run_fig5", "FIG5_GEOMETRIES", "FIG5_DENSITIES"]

FIG5_GEOMETRIES = ("4x8", "4x16", "8x8", "8x16")
FIG5_DENSITIES = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.2, 0.5, 1.0)


def run_fig5(
    scale: int = 1,
    geometries: Sequence[str] = FIG5_GEOMETRIES,
    densities: Sequence[float] = FIG5_DENSITIES,
    matrices: Sequence[int] = (0, 1, 2, 3),
    seed: int = 9,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate the Fig. 5 sweep; one row per (matrix, system, d_v),
    priced by one profile-only task per (matrix, system, mode)."""
    result = ExperimentResult(
        experiment="fig5",
        title="Speedup of SCS vs. SC for IP",
        columns=[
            "N",
            "nreuse",
            "system",
            "vector_density",
            "sc_cycles",
            "scs_cycles",
            "scs_gain_pct",
        ],
        notes=f"uniform matrices, scale=1/{scale}; paper sweeps d_v<=0.04",
    )
    tasks, meta = [], []
    for mi in matrices:
        coo = fig4_matrix(mi, scale=scale)
        row = {
            "use_partition": True,
            "token": fig4_key(mi, scale),
            "profile_only": True,
        }
        info = MatrixInfo.of(coo)
        specs = [
            {"n": coo.n_cols, "density": d, "seed": seed + 17 * i}
            for i, d in enumerate(densities)
        ]
        for geom_name in geometries:
            nreuse = DecisionTree(Geometry.parse(geom_name)).nreuse(info)
            tasks.append(
                price_task("ip", HWMode.SC, geom_name, coo, specs, **row)
            )
            tasks.append(
                price_task("ip", HWMode.SCS, geom_name, coo, specs, **row)
            )
            meta.append((coo.n_cols, nreuse, geom_name))
    reports = sweep_tasks(tasks, "fig5", jobs)
    for (n, nreuse, geom_name), sc_row, scs_row in zip(
        meta, reports[0::2], reports[1::2]
    ):
        for d, sc, scs in zip(densities, sc_row["points"], scs_row["points"]):
            result.add(
                N=n,
                nreuse=nreuse,
                system=geom_name,
                vector_density=d,
                sc_cycles=sc["cycles"],
                scs_cycles=scs["cycles"],
                scs_gain_pct=100.0 * (sc["cycles"] / scs["cycles"] - 1.0),
            )
    return result
