"""Fig. 7 — workload balancing on power-law matrices.

Paper setup: power-law matrices at N = 131k..1M (densities 4.9e-5 ..
6.7e-6), SpMV time normalised to *uniform* matrices of the same shape
and density, on an 8x16 system.  IP runs with a fully dense vector
(d_v = 1.0) on SC/SCS; OP runs at d_v = 0.1 on PC/PS; each with and
without the equal-nnz partitioning.

Expected shape: equal-nnz partitioning improves IP by 7-30 % (SC more
than SCS), power-law OP runs *faster* than uniform (empty columns shrink
the merge), and OP's partitioning gains are within ~10 %.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..hardware import HWMode
from ..workloads import cached_csc, cached_matrix, uniform_random
from .common import (
    FIG7_DIMENSIONS,
    cache_dir,
    fig7_key,
    fig7_matrix,
    price_task,
    sweep_tasks,
)
from .report import ExperimentResult

__all__ = ["run_fig7"]

_IP_DENSITY = 1.0
_OP_DENSITY = 0.1


#: Seed of the uniform twins (the power-law matrices use fig7_matrix's).
_TWIN_SEED = 3


def _uniform_twin(index: int, scale: int, seed: int = _TWIN_SEED):
    """Uniform matrix matching the power-law one's shape and density."""
    n, r = FIG7_DIMENSIONS[index]
    e = int(r * n * n)
    n_s, e_s = n // scale, e // scale
    return cached_matrix(
        cache_dir(),
        fig7_key(index, scale, seed, kind="u"),
        lambda: uniform_random(n_s, nnz=e_s, seed=seed + index),
    )


def run_fig7(
    scale: int = 1,
    geometry_name: str = "8x16",
    matrices: Sequence[int] = (0, 1, 2, 3),
    seed: int = 23,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 7; one row per (matrix, config, partitioning)."""
    result = ExperimentResult(
        experiment="fig7",
        title="Power-law SpMV time normalised to uniform (workload balancing)",
        columns=[
            "N",
            "config",
            "partitioned",
            "powerlaw_cycles",
            "uniform_cycles",
            "normalized_time",
        ],
        notes=(
            f"system {geometry_name}, IP at d_v={_IP_DENSITY}, "
            f"OP at d_v={_OP_DENSITY}, scale=1/{scale}"
        ),
    )

    tasks, meta = [], []
    for mi in matrices:
        pl = fig7_matrix(mi, scale=scale)
        uni = _uniform_twin(mi, scale=scale)
        pl_memo = {"use_partition": True, "token": fig7_key(mi, scale)}
        uni_memo = {
            "use_partition": True,
            "token": fig7_key(mi, scale, _TWIN_SEED, kind="u"),
        }
        ip_spec = {"n": pl.n_cols, "density": _IP_DENSITY, "seed": seed}
        op_spec = {"n": pl.n_cols, "density": _OP_DENSITY, "seed": seed + 1}
        for mode in (HWMode.SC, HWMode.SCS):
            for balanced in (False, True):
                tasks.append(
                    price_task("ip", mode, geometry_name, pl, ip_spec,
                               balanced=balanced, **pl_memo)
                )
                tasks.append(
                    price_task("ip", mode, geometry_name, uni, ip_spec,
                               balanced=balanced, **uni_memo)
                )
                meta.append((pl.n_cols, mode.label, balanced))
        pl_csc, uni_csc = cached_csc(pl), cached_csc(uni)
        for mode in (HWMode.PC, HWMode.PS):
            for balanced in (False, True):
                tasks.append(
                    price_task("op", mode, geometry_name, pl_csc, op_spec,
                               balanced=balanced, **pl_memo)
                )
                tasks.append(
                    price_task("op", mode, geometry_name, uni_csc, op_spec,
                               balanced=balanced, **uni_memo)
                )
                meta.append((pl.n_cols, mode.label, balanced))
    reports = sweep_tasks(tasks, "fig7", jobs)
    for (n, config, balanced), pl_rep, uni_rep in zip(
        meta, reports[0::2], reports[1::2]
    ):
        p, u = pl_rep["cycles"], uni_rep["cycles"]
        result.add(
            N=n,
            config=config,
            partitioned=balanced,
            powerlaw_cycles=p,
            uniform_cycles=u,
            normalized_time=p / u,
        )
    return result
