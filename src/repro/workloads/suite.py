"""The paper's workload suites.

* :data:`TABLE3_GRAPHS` — the five real-world graphs of Table III.  The
  SNAP/SuiteSparse downloads are not available offline, so each spec
  *synthesises* a stand-in that matches the row's vertex count, edge
  count, directedness and degree character (power-law for the social
  graphs, uniform for vsp — which Table III itself labels "Random").
  A ``scale`` divisor shrinks |V| and |E| together, preserving the
  average degree, for laptop-scale runs; ``scale=1`` regenerates the
  full-size graphs.
* :func:`fig4_matrices` — the uniform suite of Figs. 4-6 (fixed 4M nnz,
  N from 131k to 1M).
* :func:`fig7_matrices` — the power-law suite of Fig. 7 (same dimensions
  and densities as the uniform one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import WorkloadError
from ..formats import COOMatrix
from ..graphs import Graph
from .synthetic import chung_lu, uniform_random

__all__ = [
    "GraphSpec",
    "TABLE3_GRAPHS",
    "load_graph",
    "fig4_matrices",
    "fig7_matrices",
    "FIG4_DIMENSIONS",
]


@dataclass(frozen=True)
class GraphSpec:
    """One Table III row."""

    name: str
    vertices: int
    edges: int
    directed: bool
    kind: str  # "social" (power-law) or "random" (uniform)

    @property
    def density(self) -> float:
        """Adjacency density (Table III's last column)."""
        return self.edges / (self.vertices**2)

    @property
    def avg_degree(self) -> float:
        """Edges per vertex — preserved under scaling."""
        return self.edges / self.vertices

    def size(self, scale: int = 16) -> Tuple[int, int]:
        """``(vertices, sampled edges)`` of the stand-in at ``1/scale``.

        Both floor (64 vertices, 4 edges per vertex), so several scales
        can share a vertex count; the pair tells them apart.
        """
        if scale < 1:
            raise WorkloadError("scale must be >= 1")
        n = max(self.vertices // scale, 64)
        e = max(self.edges // scale, 4 * n)
        # At extreme scales a dense spec (vsp) can exceed the shrunken
        # shape; cap so the sampler always has room.
        return n, min(e, n * n // 3)

    def adjacency(self, scale: int = 16, seed: int = 42) -> COOMatrix:
        """The stand-in graph's adjacency at ``1/scale`` size.

        :meth:`generate` wraps it in a :class:`Graph`; the workload
        cache stores it as is, so a cold cache builds no graph.
        """
        n, e = self.size(scale)
        if self.kind == "social":
            coo = chung_lu(n, e, exponent=2.1, seed=seed, directed=True)
        else:
            coo = uniform_random(
                n, nnz=e, seed=seed, remove_self_loops=True
            )
        if not self.directed:
            # mirror to an undirected adjacency (youtube, vsp)
            import numpy as np

            src = np.concatenate([coo.rows, coo.cols])
            dst = np.concatenate([coo.cols, coo.rows])
            vals = np.concatenate([coo.vals, coo.vals])
            coo = COOMatrix.summed(n, n, src, dst, vals)
        return coo

    def generate(self, scale: int = 16, seed: int = 42) -> Graph:
        """Synthesise the stand-in graph at ``1/scale`` size."""
        coo = self.adjacency(scale, seed)
        label = self.name if scale == 1 else f"{self.name}@1/{scale}"
        return Graph(coo, name=label)


#: Table III, verbatim.
TABLE3_GRAPHS: Dict[str, GraphSpec] = {
    "livejournal": GraphSpec("livejournal", 4_847_571, 68_992_772, True, "social"),
    "pokec": GraphSpec("pokec", 1_632_803, 30_622_564, True, "social"),
    "youtube": GraphSpec("youtube", 1_134_890, 2_987_624, False, "social"),
    "twitter": GraphSpec("twitter", 81_306, 1_768_149, True, "social"),
    "vsp": GraphSpec("vsp", 21_996, 2_442_056, False, "random"),
}


def load_graph(name: str, scale: int = 16, seed: int = 42) -> Graph:
    """Generate the named Table III stand-in at ``1/scale`` size."""
    try:
        spec = TABLE3_GRAPHS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown graph {name!r}; choose from {sorted(TABLE3_GRAPHS)}"
        ) from None
    return spec.generate(scale=scale, seed=seed)


#: (N, target nnz) of the Figs. 4-6 uniform suite: "the matrices
#: evaluated here have the same number of non-zero elements" — 4M nnz at
#: N = 131k..1M gives exactly the caption densities 2.3e-4 .. 3.6e-6.
FIG4_DIMENSIONS: Tuple[Tuple[int, int], ...] = (
    (131_072, 4_000_000),
    (262_144, 4_000_000),
    (524_288, 4_000_000),
    (1_048_576, 4_000_000),
)


def fig4_matrices(scale: int = 1, seed: int = 1) -> List[COOMatrix]:
    """The uniform random suite of Figs. 4-6 (optionally scaled down)."""
    out = []
    for i, (n, nnz) in enumerate(FIG4_DIMENSIONS):
        out.append(
            uniform_random(n // scale, nnz=nnz // scale, seed=seed + i)
        )
    return out


def fig7_matrices(scale: int = 1, seed: int = 2) -> List[COOMatrix]:
    """The power-law suite of Fig. 7.

    Fig. 7's captions list N = 131k..1M with densities 4.9e-5..6.7e-6 —
    about 840k/1.8M/3.5M/7M non-zeros; we keep the paper's dimensions and
    densities.
    """
    dims = (
        (131_072, 4.9e-5),
        (262_144, 2.6e-5),
        (524_288, 1.3e-5),
        (1_048_576, 6.7e-6),
    )
    out = []
    for i, (n, r) in enumerate(dims):
        n_s = n // scale
        e = int(r * n * n) // scale
        out.append(chung_lu(n_s, e, exponent=2.1, seed=seed + i))
    return out
