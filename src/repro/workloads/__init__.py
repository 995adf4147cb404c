"""Workload generation: synthetic matrices, frontiers, and the paper's
suites (Table III stand-ins, the Figs. 4-6 uniform suite, the Fig. 7
power-law suite)."""

from .io import (
    atomic_write,
    cached_csc,
    cached_matrix,
    load_snap_edgelist,
    load_matrix_market,
    load_npz,
    save_matrix_market,
    save_npz,
)
from .suite import (
    FIG4_DIMENSIONS,
    TABLE3_GRAPHS,
    GraphSpec,
    fig4_matrices,
    fig7_matrices,
    load_graph,
)
from .reorder import (
    ORDERING_METHODS,
    bfs_order,
    block_order,
    degree_order,
    permute_matrix,
    rcm_order,
    reorder_graph,
    reorder_matrix,
)
from .synthetic import chung_lu, power_law_degrees, rmat, uniform_random
from .validate import degree_gini, hill_tail_exponent, is_heavy_tailed
from .vectors import FIG4_DENSITIES, FIG8_DENSITIES, density_sweep, random_frontier

__all__ = [
    "atomic_write",
    "cached_csc",
    "cached_matrix",
    "load_snap_edgelist",
    "load_matrix_market",
    "load_npz",
    "save_matrix_market",
    "save_npz",
    "FIG4_DIMENSIONS",
    "TABLE3_GRAPHS",
    "GraphSpec",
    "fig4_matrices",
    "fig7_matrices",
    "load_graph",
    "ORDERING_METHODS",
    "bfs_order",
    "block_order",
    "degree_order",
    "permute_matrix",
    "rcm_order",
    "reorder_graph",
    "reorder_matrix",
    "chung_lu",
    "power_law_degrees",
    "rmat",
    "uniform_random",
    "degree_gini",
    "hill_tail_exponent",
    "is_heavy_tailed",
    "FIG4_DENSITIES",
    "FIG8_DENSITIES",
    "density_sweep",
    "random_frontier",
]
