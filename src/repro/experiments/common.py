"""Shared plumbing for the experiment drivers.

Full-scale workload generation (4M-nnz uniform matrices, multi-million-
edge graphs) takes minutes, so everything goes through an on-disk cache
(``REPRO_CACHE_DIR`` env var, default ``./.repro_cache``).  Each driver
takes a ``quick`` flag: the benchmark suite runs the quick subset by
default and the full paper grid when ``REPRO_FULL=1``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..formats import COOMatrix
from ..graphs import Graph
from ..parallel import PricingTask, SweepScheduler
from ..parallel.work import coo_arrays, csc_arrays, semiring_for, system_for
from ..spmv import inner_product, outer_product
from ..workloads import (
    FIG4_DIMENSIONS,
    TABLE3_GRAPHS,
    cached_matrix,
    chung_lu,
    uniform_random,
)

__all__ = [
    "cache_dir",
    "full_runs_enabled",
    "fig4_key",
    "fig4_matrix",
    "fig7_key",
    "fig7_matrix",
    "table3_graph",
    "price_task",
    "sweep_tasks",
    "FIG7_DIMENSIONS",
    "PRICE_FN",
]

#: Fig. 7's (N, density) captions.
FIG7_DIMENSIONS = (
    (131_072, 4.9e-5),
    (262_144, 2.6e-5),
    (524_288, 1.3e-5),
    (1_048_576, 6.7e-6),
)


#: The generic matrix-pricing task function (see repro.parallel.work).
PRICE_FN = "repro.parallel.work:price_config"


def run_config(coo, csc, frontier, algorithm: str, mode, geometry, system=None):
    """Price one (algorithm, mode) configuration on one input, in-process.

    Runs the kernel functionally, prices its profile, and returns the
    :class:`~repro.hardware.stats.RunReport`.  ``csc`` is the matrix's
    CSC copy (built once per matrix by the caller, as the real runtime
    does).  The semiring and :class:`TransmuterSystem` come from the
    process-wide memos in :mod:`repro.parallel.work`, so repeated calls
    share one instance per algebra/geometry instead of rebuilding them
    per innermost loop iteration.

    The sweep drivers now decompose their grids into
    :func:`price_task` units instead; this stays as the one-off pricing
    entry point (examples, tests, ad-hoc exploration).
    """
    semiring = semiring_for("spmv")
    system = system or system_for(geometry)
    if algorithm == "ip":
        result = inner_product(coo, frontier.to_dense(), semiring, geometry, mode)
    else:
        result = outer_product(csc, frontier, semiring, geometry, mode)
    return system.evaluate_without_switching(result.profile)


def price_task(
    algorithm: str,
    mode,
    geometry_name: str,
    matrix,
    frontier_spec: Dict[str, object],
    frontier_arrays: Optional[Dict[str, np.ndarray]] = None,
    **extra,
) -> PricingTask:
    """One ``price_config`` task of a sweep grid.

    ``matrix`` is the COO matrix for ``"ip"`` or the CSC matrix for
    ``"op"``; ``frontier_spec`` is either the seeded form
    ``{"n", "density", "seed"}`` (regenerated bit-exactly in the worker)
    or ``{"n"}`` with explicit ``frontier_arrays``
    (``frontier_idx``/``frontier_vals``).  Extra keywords land in the
    payload verbatim (``balanced``, ``profile_only``, ``semiring``,
    ``use_partition``/``token``, ``params``).
    """
    payload = {
        "algorithm": algorithm,
        "mode": mode.name,
        "geometry": geometry_name,
        "shape": [matrix.n_rows, matrix.n_cols],
        "frontier": frontier_spec,
        **extra,
    }
    arrays = coo_arrays(matrix) if algorithm == "ip" else csc_arrays(matrix)
    if frontier_arrays:
        arrays = {**arrays, **frontier_arrays}
    return PricingTask(PRICE_FN, payload, arrays)


def sweep_tasks(
    tasks: Sequence[PricingTask], label: str, jobs: Optional[int] = None
) -> List[dict]:
    """Run a driver's task grid through one :class:`SweepScheduler`."""
    return SweepScheduler(jobs=jobs, label=label).map(tasks)


def cache_dir() -> str:
    """Workload cache directory (created on first use)."""
    return os.environ.get("REPRO_CACHE_DIR", os.path.abspath(".repro_cache"))


def full_runs_enabled() -> bool:
    """Whether benches should run the full paper grid (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")


def fig4_key(index: int, scale: int = 1, seed: int = 1) -> str:
    """The workload-cache name of :func:`fig4_matrix`'s matrix.

    It names the matrix's content, so the sweep tasks key their
    partition memo (``token``) by it too.
    """
    n, nnz = FIG4_DIMENSIONS[index]
    return f"fig4_u_{n // scale}_{nnz // scale}_{seed}"


def fig4_matrix(index: int, scale: int = 1, seed: int = 1) -> COOMatrix:
    """Cached uniform matrix ``index`` of the Figs. 4-6 suite."""
    n, nnz = FIG4_DIMENSIONS[index]
    n, nnz = n // scale, nnz // scale
    return cached_matrix(
        cache_dir(),
        fig4_key(index, scale, seed),
        lambda: uniform_random(n, nnz=nnz, seed=seed + index),
    )


def fig7_key(index: int, scale: int = 1, seed: int = 2, kind: str = "pl") -> str:
    """The workload-cache name of a Fig. 7 matrix: the power-law one
    (``kind="pl"``) or its uniform twin (``"u"``); see :func:`fig4_key`."""
    n, r = FIG7_DIMENSIONS[index]
    e = int(r * n * n)
    return f"fig7_{kind}_{n // scale}_{e // scale}_{seed}"


def fig7_matrix(index: int, scale: int = 1, seed: int = 2) -> COOMatrix:
    """Cached power-law matrix ``index`` of the Fig. 7 suite."""
    n, r = FIG7_DIMENSIONS[index]
    e = int(r * n * n)
    n, e = n // scale, e // scale
    return cached_matrix(
        cache_dir(),
        fig7_key(index, scale, seed),
        lambda: chung_lu(n, e, exponent=2.1, seed=seed + index),
    )


def table3_graph(name: str, scale: int = 16, seed: int = 42) -> Graph:
    """Cached Table III stand-in graph.

    The cache key names the generator's inputs, ``(name, vertices,
    edges, seed)``: scales whose vertex counts floor alike differ in
    edges.
    """
    spec = TABLE3_GRAPHS[name]
    n, e = spec.size(scale)

    def build() -> COOMatrix:
        return spec.adjacency(scale=scale, seed=seed)

    coo = cached_matrix(cache_dir(), f"t3_{name}_{n}_{e}_{seed}", build)
    label = name if scale == 1 else f"{name}@1/{scale}"
    return Graph(coo, name=label)
