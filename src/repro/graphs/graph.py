"""Graph container for the algorithm layer.

Graph algorithms run ``f_next = SpMV(G.T, f)`` (Fig. 2): the adjacency is
stored transposed — rows are destinations, columns are sources — so the
inner product pulls over destination rows while the outer product pushes
the sparse frontier's source columns.  Both kernel formats of ``G.T`` are
built once (:class:`~repro.core.runtime.SpMVOperand`) and shared by every
iteration and every algorithm: the COO by one stable ordering, the CSC
read off the adjacency's own row-major arrays when they are in order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.runtime import SpMVOperand
from ..errors import AlgorithmError
from ..formats import COOMatrix, CSCMatrix

__all__ = ["Graph"]


class Graph:
    """A weighted directed graph ready for SpMV-based analytics.

    Parameters
    ----------
    adjacency:
        COO matrix with ``adjacency[src, dst] = weight``.
    name:
        Label used in reports.
    """

    def __init__(self, adjacency: COOMatrix, name: Optional[str] = None):
        if adjacency.n_rows != adjacency.n_cols:
            raise AlgorithmError(
                f"adjacency must be square, got {adjacency.shape}"
            )
        self.adjacency = adjacency
        self.name = name or "graph"
        #: ``G.T`` in both kernel formats (rows = dst, cols = src).
        self.operand = SpMVOperand(
            adjacency.transpose(), CSCMatrix.of_transpose(adjacency)
        )
        self._out_degrees: Optional[np.ndarray] = None
        self._in_degrees: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        src,
        dst,
        weights=None,
        name: Optional[str] = None,
        undirected: bool = False,
    ) -> "Graph":
        """Build from edge lists; duplicate edges are summed.

        ``undirected=True`` mirrors every edge (the youtube/vsp rows of
        Table III are undirected graphs).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if weights is None:
            weights = np.ones(len(src))
        weights = np.asarray(weights, dtype=np.float64)
        if undirected:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            weights = np.concatenate([weights, weights])
        coo = COOMatrix.summed(n_vertices, n_vertices, src, dst, weights)
        return cls(coo, name=name)

    @classmethod
    def from_networkx(cls, g, name: Optional[str] = None) -> "Graph":
        """Build from a networkx (di)graph with optional 'weight' attrs."""
        import networkx as nx

        nodes = list(g.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        src, dst, w = [], [], []
        for u, v, data in g.edges(data=True):
            src.append(index[u])
            dst.append(index[v])
            w.append(float(data.get("weight", 1.0)))
        return cls.from_edges(
            len(nodes),
            src,
            dst,
            w,
            name=name,
            undirected=not nx.is_directed(g),
        )

    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Vertex count."""
        return self.adjacency.n_rows

    @property
    def n_edges(self) -> int:
        """Stored (directed) edge count."""
        return self.adjacency.nnz

    @property
    def density(self) -> float:
        """Adjacency density — Table III's last column."""
        return self.adjacency.density

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"Graph({self.name}, |V|={self.n_vertices:,}, |E|={self.n_edges:,})"
        )

    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex (PageRank's ``deg(src)``)."""
        if self._out_degrees is None:
            self._out_degrees = self.adjacency.row_counts()
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        """In-degree per vertex."""
        if self._in_degrees is None:
            self._in_degrees = self.adjacency.col_counts()
        return self._in_degrees

    def check_source(self, source: int) -> int:
        """Validate a traversal source vertex."""
        if not 0 <= source < self.n_vertices:
            raise AlgorithmError(
                f"source {source} outside [0, {self.n_vertices})"
            )
        return int(source)
