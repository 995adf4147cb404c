"""The Matrix_Op / Vector_Op abstraction (Table I of the paper).

"To map a graph algorithm to CoSPARSE, two key operations need to be
specified.  Matrix_Op defines the computation between the non-zero
elements of the adjacency sparse matrix and the elements of the frontier
vector.  Vector_Op applies computation to the vector elements."

A :class:`Semiring` bundles:

* ``combine`` — Matrix_Op's per-edge part: the contribution an edge
  ``(src, dst, a)`` makes to ``dst``, given the frontier value at ``src``
  (and, for SSSP, the current value at ``dst``);
* ``reduce_op`` — how contributions to the same ``dst`` fold together
  (``np.add`` for SpMV/PR/CF, ``np.minimum`` for BFS/SSSP);
* ``vector_op`` — Table I's Vector_Op, applied to updated entries.

Both kernels (inner and outer product) execute any semiring, which is what
lets BFS, SSSP, PR and CF share one SpMV backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import AlgorithmError

__all__ = [
    "Semiring",
    "spmv_semiring",
    "bfs_semiring",
    "sssp_semiring",
    "pagerank_semiring",
    "cf_semiring",
]

#: Signature: combine(a_vals, v_src, v_dst, src_idx, dst_idx) -> contributions
CombineFn = Callable[..., np.ndarray]
#: Signature: vector_op(updated_values, previous_values) -> new values
VectorOpFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: Signature: prescale(frontier) -> one contribution per source vertex
PrescaleFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Semiring:
    """One row of Table I, in executable form.

    Attributes
    ----------
    name:
        Algorithm label (reports / repr).
    combine:
        Vectorised per-edge contribution.  Receives the edge values, the
        frontier values at the source endpoints, the *current* vertex
        values at the destinations (``None`` unless ``needs_dst``), and
        the src/dst index arrays (PR divides by ``deg(src)``).
    reduce_op:
        ``np.add`` or ``np.minimum`` — must be a ufunc with an ``at``
        scatter method and be associative/commutative.
    identity:
        Neutral element of ``reduce_op`` (0 for add, +inf for min).
    carry_output:
        Start the output from the current vertex values instead of the
        identity (SSSP's ``min(..., V_dst)`` term).
    needs_dst:
        ``combine`` reads the destination's current value (CF's error
        term); forces a dense gather of vertex state.
    vector_op:
        Table I's Vector_Op, or ``None`` when not applicable.
    combine_flops:
        Per-edge compute operations, for the hardware cost model.
    value_words:
        Words per vertex value (1 for scalars; K for CF's latent vectors).
    absent:
        The value an *inactive* vertex holds in the dense frontier
        representation (0 for additive semirings, +inf for min ones).
        The IP kernel "skips computation and accesses to the output
        vector" for sources holding this value (Section IV-C1).
    spec:
        JSON-able reconstruction recipe (``{"kind": ..., ...}``) that
        lets a pool worker rebuild this exact semiring from scalars —
        the closures above cannot be pickled across processes.  ``None``
        for semirings with no registered distributed builder (the
        sharded runtime then runs them serially).
    spec_arrays:
        Arrays the recipe closes over (e.g. PageRank's per-source
        out-degrees), shipped inline with every shard task.
    prescale:
        Optional per-vertex form of ``combine``, for semirings whose
        contribution depends on the source vertex alone (not on the
        edge value or the destination): ``prescale(v)[src]`` must equal
        ``combine(a, v[src], None, src, dst)`` bit for bit.  PageRank's
        ``V[src] / deg(src)`` divides once per vertex this way, where
        ``combine`` divides once per edge.  The IP kernel uses it on
        fully active frontiers (docs/model.md §6k); every other path
        calls ``combine``.
    """

    name: str
    combine: CombineFn
    reduce_op: np.ufunc
    identity: float
    carry_output: bool = False
    needs_dst: bool = False
    vector_op: Optional[VectorOpFn] = None
    combine_flops: int = 2
    value_words: int = 1
    absent: float = 0.0
    spec: Optional[dict] = None
    spec_arrays: Optional[dict] = None
    prescale: Optional[PrescaleFn] = None

    # ------------------------------------------------------------------
    def init_output(self, n_rows: int, current: Optional[np.ndarray]) -> np.ndarray:
        """Allocate the output vector this semiring reduces into."""
        if self.carry_output:
            if current is None:
                raise AlgorithmError(
                    f"semiring {self.name!r} carries the output from the "
                    "current vertex values, which were not provided"
                )
            return np.array(current, dtype=np.float64, copy=True)
        shape = (n_rows,) if self.value_words == 1 else (n_rows, self.value_words)
        return np.full(shape, self.identity)

    def scatter(self, out: np.ndarray, dst_idx: np.ndarray, contributions: np.ndarray):
        """Reduce ``contributions`` into ``out`` at ``dst_idx`` in place."""
        self.reduce_op.at(out, dst_idx, contributions)

    def apply_vector_op(
        self, updated: np.ndarray, previous: np.ndarray
    ) -> np.ndarray:
        """Apply Vector_Op to updated entries (identity when absent)."""
        if self.vector_op is None:
            return updated
        return self.vector_op(updated, previous)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Semiring({self.name})"


# ----------------------------------------------------------------------
# Table I rows
# ----------------------------------------------------------------------
def spmv_semiring() -> Semiring:
    """Plain SpMV: ``sum(Sp[src,dst] * V[src])``, no Vector_Op."""

    def combine(a, v_src, v_dst, src_idx, dst_idx):
        return a * v_src

    return Semiring(
        "SpMV", combine, np.add, 0.0, combine_flops=2,
        spec={"kind": "spmv"},
    )


def bfs_semiring() -> Semiring:
    """BFS: ``min(V[src])`` — propagate the best source label.

    Vertex values are labels (iteration number or parent id, +inf when
    unvisited); an edge forwards its source's label and destinations keep
    the minimum.
    """

    def combine(a, v_src, v_dst, src_idx, dst_idx):
        return np.array(v_src, copy=True)

    return Semiring(
        "BFS", combine, np.minimum, np.inf, combine_flops=1, absent=np.inf,
        spec={"kind": "bfs"},
    )


def sssp_semiring() -> Semiring:
    """SSSP: ``min(V[src] + Sp[src,dst], V[dst])`` — Bellman-Ford relax."""

    def combine(a, v_src, v_dst, src_idx, dst_idx):
        return v_src + a

    return Semiring(
        "SSSP",
        combine,
        np.minimum,
        np.inf,
        carry_output=True,
        combine_flops=2,
        absent=np.inf,
        spec={"kind": "sssp"},
    )


def pagerank_semiring(degrees: np.ndarray, alpha: float = 0.15) -> Semiring:
    """PageRank: ``sum(V[src]/deg(src))``; Vector_Op ``a + (1-a)x``.

    Parameters
    ----------
    degrees:
        Out-degree per vertex.  Zero-degree vertices contribute nothing
        (their mass is not redistributed, as in Ligra's PageRank).
    alpha:
        Damping complement (the paper's alpha; Ligra uses 0.15).
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    safe = np.where(degrees > 0, degrees, 1.0)

    def combine(a, v_src, v_dst, src_idx, dst_idx):
        return v_src / safe[src_idx]

    def prescale(v):
        # The same IEEE division on the same operands as combine's,
        # once per vertex instead of once per edge.
        return v / safe

    def vector_op(updated, previous):
        return alpha + (1.0 - alpha) * updated

    return Semiring(
        "PR", combine, np.add, 0.0, vector_op=vector_op, combine_flops=3,
        spec={"kind": "pagerank", "alpha": float(alpha)},
        spec_arrays={"degrees": degrees},
        prescale=prescale,
    )


def cf_semiring(lambda_: float = 0.05, beta: float = 0.1, k: int = 8) -> Semiring:
    """Collaborative filtering (one SGD half-step over latent factors).

    Table I: Matrix_Op ``sum((Sp[src,dst] - V[src].V[dst]) * V[src]
    - lambda * V[dst])`` and Vector_Op ``beta * dV + V``.  Vertex values
    are K-dimensional latent-feature rows; the rating error
    ``(r - u.v)`` scales the source factors, with L2 regularisation.
    """
    if k <= 0:
        raise AlgorithmError("CF latent dimension must be positive")

    def combine(a, v_src, v_dst, src_idx, dst_idx):
        err = a - np.einsum("ij,ij->i", v_src, v_dst)
        return err[:, None] * v_src - lambda_ * v_dst

    def vector_op(updated, previous):
        return beta * updated + previous

    return Semiring(
        "CF",
        combine,
        np.add,
        0.0,
        needs_dst=True,
        vector_op=vector_op,
        combine_flops=4 * k,
        value_words=k,
    )
