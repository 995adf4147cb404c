"""Sweep-driven derivation of the reconfiguration thresholds.

Section III-C: "The thresholds used at each level of the reconfiguration
decision tree is based on extensive experiments and analysis."  This
module runs those experiments against the hardware model — the same
density sweeps as Figs. 4-6 — and extracts measured thresholds, which can
then replace :class:`~repro.core.decision.DecisionThresholds` defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..formats import COOMatrix, CSCMatrix, SparseVector
from ..hardware import Geometry, HWMode
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from .decision import DecisionThresholds

__all__ = [
    "SweepPoint",
    "sweep_op_vs_ip",
    "find_crossover_density",
    "calibrate_cvd",
    "calibrated_thresholds",
]


@dataclass(frozen=True)
class SweepPoint:
    """One (density, speedup) sample of a configuration comparison."""

    vector_density: float
    baseline_cycles: float
    candidate_cycles: float

    @property
    def speedup(self) -> float:
        """baseline / candidate (>1 means the candidate wins)."""
        return (
            self.baseline_cycles / self.candidate_cycles
            if self.candidate_cycles
            else float("inf")
        )


def sweep_op_vs_ip(
    coo: COOMatrix,
    geometry: Geometry,
    densities: Sequence[float],
    params: HardwareParams = DEFAULT_PARAMS,
    ip_mode: HWMode = HWMode.SC,
    op_mode: HWMode = HWMode.PC,
    seed: int = 7,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """The Fig. 4 experiment: OP-vs-IP cycles across frontier densities.

    Frontier draws come from one *sequential* generator (each density's
    sample depends on the previous draws), so tasks carry the explicit
    index/value arrays rather than a per-task seed; everything else
    rides the :class:`~repro.parallel.scheduler.SweepScheduler` like the
    figure sweeps.
    """
    import dataclasses

    from ..parallel import PricingTask, SweepScheduler
    from ..parallel.work import coo_arrays, csc_arrays

    rng = np.random.default_rng(seed)
    csc = CSCMatrix.from_coo(coo)
    params_spec = (
        None if params is DEFAULT_PARAMS else dataclasses.asdict(params)
    )
    tasks = []
    for d in densities:
        nnz = max(1, int(round(d * coo.n_cols)))
        idx = rng.choice(coo.n_cols, size=min(nnz, coo.n_cols), replace=False)
        vals = rng.random(len(idx)) + 0.1
        sv = SparseVector(coo.n_cols, idx, vals)
        f_arrays = {"frontier_idx": sv.indices, "frontier_vals": sv.values}
        base = {
            "geometry": geometry.name,
            "shape": [coo.n_rows, coo.n_cols],
            "frontiers": [{"n": coo.n_cols}],
        }
        if params_spec is not None:
            base["params"] = params_spec
        tasks.append(
            PricingTask(
                "repro.parallel.work:price_config",
                {**base, "algorithm": "ip", "mode": ip_mode.name},
                {**coo_arrays(coo), **f_arrays},
            )
        )
        tasks.append(
            PricingTask(
                "repro.parallel.work:price_config",
                {**base, "algorithm": "op", "mode": op_mode.name},
                {**csc_arrays(csc), **f_arrays},
            )
        )
    reports = [
        r["points"][0]
        for r in SweepScheduler(jobs=jobs, label="calibration").map(tasks)
    ]
    return [
        SweepPoint(
            vector_density=d,
            baseline_cycles=ip["cycles"],
            candidate_cycles=op["cycles"],
        )
        for d, ip, op in zip(densities, reports[0::2], reports[1::2])
    ]


def find_crossover_density(points: Sequence[SweepPoint]) -> Optional[float]:
    """Density where the candidate stops winning (log-interpolated).

    Expects points ordered by increasing density with the candidate (OP)
    winning at the sparse end; returns ``None`` when there is no
    crossover inside the sweep.
    """
    pts = sorted(points, key=lambda p: p.vector_density)
    for lo, hi in zip(pts[:-1], pts[1:]):
        s0, s1 = lo.speedup, hi.speedup
        if s0 >= 1.0 and s1 < 1.0:
            # interpolate log(speedup) against log(density)
            x0, x1 = np.log(lo.vector_density), np.log(hi.vector_density)
            y0, y1 = np.log(s0), np.log(s1)
            if y0 == y1:
                return float(lo.vector_density)
            x = x0 + (0.0 - y0) * (x1 - x0) / (y1 - y0)
            return float(np.exp(x))
    if pts and pts[0].speedup < 1.0:
        return float(pts[0].vector_density)  # IP already wins everywhere
    return None


def calibrate_cvd(
    coo: COOMatrix,
    geometry: Geometry,
    params: HardwareParams = DEFAULT_PARAMS,
    densities: Sequence[float] = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08),
    seed: int = 7,
) -> Optional[float]:
    """Measured crossover vector density for one matrix/geometry."""
    points = sweep_op_vs_ip(coo, geometry, densities, params, seed=seed)
    return find_crossover_density(points)


def calibrated_thresholds(
    coo: COOMatrix,
    geometry: Geometry,
    params: HardwareParams = DEFAULT_PARAMS,
    base: Optional[DecisionThresholds] = None,
    **sweep_kw,
) -> DecisionThresholds:
    """Thresholds with the CVD replaced by a measured value.

    The measured CVD at this geometry is back-projected to the
    8-PEs-per-tile reference point through the tree's ``1/P`` scaling so
    the same thresholds object remains valid across geometries.
    """
    base = base or DecisionThresholds()
    cvd = calibrate_cvd(coo, geometry, params, **sweep_kw)
    if cvd is None:
        return base
    cvd_at_8 = cvd * geometry.pes_per_tile / 8.0
    density = coo.density
    if density > 0:
        cvd_at_8 /= (base.reference_matrix_density / density) ** (
            base.matrix_sparsity_exponent
        )
    return base.with_overrides(cvd_at_8_pes=float(cvd_at_8))
