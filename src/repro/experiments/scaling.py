"""Geometry-scaling study (extension driver).

The paper varies the system from 4x8 to 8x32 (gem5) and evaluates the
headline systems at 16x16; this driver sweeps geometries for a fixed
SpMV workload and records, per frontier density, the best achievable
configuration — quantifying the two scaling laws the reconfiguration
thresholds rest on:

* IP scales near-linearly with total PEs (streaming parallelism);
* OP saturates with PEs *per tile* (the LCP's serial merge/write-back)
  but keeps scaling with tiles.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.decision import DecisionTree, MatrixInfo
from ..formats import CSCMatrix
from ..hardware import Geometry, HWMode
from ..parallel.work import system_for
from ..workloads import uniform_random
from .common import price_task, sweep_tasks
from .report import ExperimentResult

__all__ = ["run_scaling", "SCALING_GEOMETRIES"]

SCALING_GEOMETRIES = ("2x8", "4x8", "4x16", "8x16", "16x16", "16x32")

_CONFIGS = (
    ("ip", HWMode.SC),
    ("ip", HWMode.SCS),
    ("op", HWMode.PC),
    ("op", HWMode.PS),
)


def run_scaling(
    n: int = 65_536,
    nnz: int = 1_000_000,
    geometries: Sequence[str] = SCALING_GEOMETRIES,
    densities: Sequence[float] = (0.002, 0.02, 0.5),
    seed: int = 13,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Sweep geometries; one row per (system, density) with the best
    configuration, its cycles/energy, and whether the decision tree
    agrees with the measured optimum."""
    matrix = uniform_random(n, nnz=nnz, seed=seed)
    csc = CSCMatrix.from_coo(matrix)
    info = MatrixInfo.of(matrix)
    result = ExperimentResult(
        experiment="scaling",
        title=f"Best configuration across geometries (N={n:,}, nnz={matrix.nnz:,})",
        columns=[
            "system",
            "n_pes",
            "vector_density",
            "best_config",
            "cycles",
            "energy_uj",
            "power_w",
            "tree_agrees",
        ],
    )
    tasks, meta = [], []
    for name in geometries:
        for i, d in enumerate(densities):
            spec = {"n": matrix.n_cols, "density": d, "seed": seed + 7 * i}
            for algorithm, mode in _CONFIGS:
                tasks.append(
                    price_task(algorithm, mode, name,
                               matrix if algorithm == "ip" else csc, [spec])
                )
            meta.append((name, d))
    reports = [r["points"][0] for r in sweep_tasks(tasks, "scaling", jobs)]
    n_cfg = len(_CONFIGS)
    for (name, d), group in zip(
        meta, (reports[i:i + n_cfg] for i in range(0, len(reports), n_cfg))
    ):
        geometry = Geometry.parse(name)
        system = system_for(geometry)
        tree = DecisionTree(geometry)
        best = None
        for (algorithm, mode), rep in zip(_CONFIGS, group):
            label = f"{algorithm.upper()}/{mode.label}"
            if best is None or rep["cycles"] < best[0]["cycles"]:
                best = (rep, label)
        rep, label = best
        # tree.decide keys off the realised frontier density
        # (round(d*n)/n, the same quantity random_frontier produces).
        nnz = max(0, min(int(round(d * matrix.n_cols)), matrix.n_cols))
        realised = nnz / matrix.n_cols
        picked = tree.decide(info, realised)
        result.add(
            system=name,
            n_pes=geometry.n_pes,
            vector_density=d,
            best_config=label,
            cycles=rep["cycles"],
            energy_uj=(rep["energy_j"] or 0.0) * 1e6,
            power_w=system.static_power_w,
            tree_agrees=str(picked) == label,
        )
    return result
