"""Vertex-reordering preprocessing (extension).

The paper balances *work* (equal-nnz partitions) but leaves vertex order
as the dataset delivers it.  Classic preprocessing reorders vertices to
improve locality, which interacts with exactly the structures CoSPARSE
reconfigures around: the IP vector segment's reuse and the OP merge's
column clustering.  This module provides the standard orderings —

* **degree sort** — hubs first: concentrates the hot vector entries in
  the lowest indices (and therefore in the first vblocks);
* **BFS order** — neighbours get nearby ids: shrinks the spread of
  column indices per row region;
* **RCM** (reverse Cuthill-McKee) — the BFS discovery order with
  lowest-degree-first tie-breaking, reversed: the classic
  bandwidth-minimising variant;
* **block order** — partition-clustered: columns grouped by the row
  block that touches them most (Akbudak-style cache blocking), hubs
  first inside each cluster;

plus the machinery to apply a permutation consistently to a matrix or a
graph.  Square matrices take one permutation over both axes;
rectangular ones (CF's bipartite rating matrices) take separate
row/column permutations.  The ablation bench and the locality autotuner
(:mod:`repro.tune`) measure what each ordering buys.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from ..formats import COOMatrix
from ..graphs.graph import Graph

__all__ = [
    "degree_order",
    "bfs_order",
    "rcm_order",
    "block_order",
    "permute_matrix",
    "reorder_graph",
    "reorder_matrix",
    "ORDERING_METHODS",
]

#: The ordering methods :func:`reorder_graph` / :func:`reorder_matrix`
#: (and the autotuner's candidate grid) accept.
ORDERING_METHODS = ("degree", "bfs", "rcm", "block")


def degree_order(matrix: COOMatrix, by: str = "total") -> np.ndarray:
    """Permutation placing high-degree vertices first.

    ``by``: ``"in"``, ``"out"`` or ``"total"`` degree.  Returns ``perm``
    with ``perm[old_id] = new_id``.
    """
    if by == "in":
        deg = matrix.col_counts()
    elif by == "out":
        deg = matrix.row_counts()
    elif by == "total":
        deg = matrix.row_counts() + matrix.col_counts()
    else:
        raise WorkloadError(f"unknown degree kind {by!r}")
    order = np.argsort(-deg, kind="stable")  # old ids, hubs first
    perm = np.empty_like(order)
    perm[order] = np.arange(len(order))
    return perm


def _symmetric_csr(n: int, rows: np.ndarray, cols: np.ndarray):
    """Symmetrised CSR-ish adjacency over ``n`` vertices."""
    src = np.concatenate([rows, cols])
    dst = np.concatenate([cols, rows])
    order_edges = np.argsort(src, kind="stable")
    src, dst = src[order_edges], dst[order_edges]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst


def _discovery_order(
    n: int,
    indptr: np.ndarray,
    dst: np.ndarray,
    source: int,
    degrees: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vertex ids in traversal-discovery order from ``source``.

    With ``degrees`` given, each vertex's fresh neighbours are visited
    lowest-degree first (id-ascending on ties) and exhausted frontiers
    reseed at the unvisited vertex of least degree — the Cuthill-McKee
    discipline.  Without it, each level's fresh vertices are taken
    id-ascending (plain BFS order) and reseeds take the smallest
    unvisited id.
    """
    visited = np.zeros(n, dtype=bool)
    out = np.empty(n, dtype=np.int64)
    count = 0
    # Reseed candidates in preference order, sorted once: visited only
    # grows, so a cursor that skips visited vertices finds each reseed.
    if degrees is None:
        reseeds = np.arange(n)
    else:
        reseeds = np.argsort(degrees, kind="stable")
    cursor = 0
    frontier = np.asarray([source], dtype=np.int64)
    visited[source] = True
    while count < n:
        if len(frontier) == 0:
            while visited[reseeds[cursor]]:
                cursor += 1
            frontier = reseeds[cursor : cursor + 1]
            visited[frontier] = True
        out[count : count + len(frontier)] = frontier
        count += len(frontier)
        nxt = []
        for u in frontier.tolist():
            nbrs = dst[indptr[u] : indptr[u + 1]]
            fresh = nbrs[~visited[nbrs]]
            if len(fresh):
                fresh = np.unique(fresh)
                if degrees is not None:
                    fresh = fresh[np.argsort(degrees[fresh], kind="stable")]
                visited[fresh] = True
                nxt.append(fresh)
        frontier = np.concatenate(nxt) if nxt else np.zeros(0, dtype=np.int64)
    return out


def bfs_order(
    matrix: COOMatrix, source: Optional[int] = None, rcm: bool = False
) -> np.ndarray:
    """Permutation numbering vertices in BFS discovery order.

    Neighbours receive nearby ids (the RCM family's locality effect);
    unreached vertices keep their relative order at the end.  Runs over
    the symmetrised structure so direction does not fragment the order.

    With ``rcm=True`` this is the true reverse Cuthill-McKee variant:
    the traversal starts from a lowest-degree vertex (unless ``source``
    is given), each vertex's fresh neighbours are discovered
    lowest-degree first, and the final order is *reversed* — the
    bandwidth-minimising discipline of the original algorithm.
    """
    n = matrix.n_rows
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    indptr, dst = _symmetric_csr(n, matrix.rows, matrix.cols)
    deg = matrix.row_counts() + matrix.col_counts()
    if source is None:
        # BFS seeds at the biggest hub; RCM at a (pseudo-peripheral
        # approximation) lowest-degree vertex.
        source = int(np.argmin(deg)) if rcm else int(np.argmax(deg))
    out = _discovery_order(
        n, indptr, dst, source, degrees=deg if rcm else None
    )
    if rcm:
        out = out[::-1]
    perm = np.empty(n, dtype=np.int64)
    perm[out] = np.arange(n)
    return perm


def rcm_order(matrix: COOMatrix, source: Optional[int] = None) -> np.ndarray:
    """Reverse Cuthill-McKee permutation (``bfs_order`` with ``rcm=True``)."""
    return bfs_order(matrix, source=source, rcm=True)


def block_order(matrix: COOMatrix, n_blocks: int = 16) -> np.ndarray:
    """Partition-clustered cache-blocking permutation.

    Splits the rows into ``n_blocks`` equal row blocks, assigns every
    vertex to the block whose rows reference its column most often, and
    orders vertices by ``(owning block, degree descending, id)``.  Each
    row region's gathers then land in one contiguous column cluster —
    the single-level form of Akbudak/Kayaaslan/Aykanat's cache-locality
    blocking — with the hot (hub) columns packed at each cluster's
    front.
    """
    n = matrix.n_rows
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    n_blocks = int(max(1, min(n_blocks, n)))
    rows_per_block = -(-n // n_blocks)
    block_of_row = matrix.rows // rows_per_block
    # Ballot: entries of column c from row-block b.
    key = matrix.cols * np.int64(n_blocks) + block_of_row
    counts = np.bincount(key, minlength=n * n_blocks).reshape(n, n_blocks)
    owner = np.argmax(counts, axis=1)  # ties -> lowest block id
    deg = matrix.row_counts() + matrix.col_counts()
    order = np.lexsort((np.arange(n), -deg, owner))
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n)
    return perm


def _check_perm(perm: np.ndarray, n: int, axis: str) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if len(perm) != n:
        raise WorkloadError(
            f"{axis} permutation length {len(perm)} != {axis} count {n}"
        )
    if len(perm) and (
        len(np.unique(perm)) != len(perm)
        or perm.min() < 0
        or perm.max() >= n
    ):
        raise WorkloadError(f"{axis} perm must be a permutation of 0..{n - 1}")
    return perm


def permute_matrix(
    matrix: COOMatrix,
    perm: np.ndarray,
    col_perm: Optional[np.ndarray] = None,
    stable: bool = False,
) -> COOMatrix:
    """Apply ``perm`` (old id -> new id) to rows and columns.

    ``col_perm`` supplies a separate column permutation; without one the
    matrix must be square and ``perm`` relabels both axes (a graph's
    vertex renumbering).  Rectangular matrices — CF's bipartite rating
    blocks — always need the separate form.

    ``stable=True`` produces the *schedule-stable* layout: entries are
    stably re-sorted by new row only, so each row keeps its original
    within-row entry order instead of being re-sorted by new column.
    Additive semirings reduce contributions in stored order
    (``np.add.at``), so this is what keeps permuted PageRank/SpMV
    bit-identical to the unpermuted run after mapping back.
    """
    if col_perm is None:
        if matrix.n_rows != matrix.n_cols:
            raise WorkloadError(
                "non-square matrix needs separate row and column "
                "permutations (pass col_perm)"
            )
        perm = _check_perm(perm, matrix.n_rows, "row")
        col_perm = perm
    else:
        perm = _check_perm(perm, matrix.n_rows, "row")
        col_perm = _check_perm(col_perm, matrix.n_cols, "col")
    new_rows = perm[matrix.rows]
    new_cols = col_perm[matrix.cols]
    if stable:
        order = np.argsort(new_rows, kind="stable")
        return COOMatrix(
            matrix.n_rows,
            matrix.n_cols,
            new_rows[order],
            new_cols[order],
            matrix.vals[order],
            sort=False,
            check=False,
        )
    return COOMatrix(
        matrix.n_rows, matrix.n_cols, new_rows, new_cols, matrix.vals
    )


def _square_perm(matrix: COOMatrix, method: str, **kw) -> np.ndarray:
    if method == "degree":
        return degree_order(matrix, **kw)
    if method == "bfs":
        return bfs_order(matrix, **kw)
    if method == "rcm":
        return rcm_order(matrix, **kw)
    if method == "block":
        return block_order(matrix, **kw)
    raise WorkloadError(f"unknown reordering {method!r}")


def reorder_matrix(
    matrix: COOMatrix, method: str = "degree", **kw
) -> Tuple[COOMatrix, np.ndarray, np.ndarray]:
    """Reorder any matrix; returns ``(matrix, row_perm, col_perm)``.

    Square matrices get one vertex permutation applied to both axes
    (``row_perm is col_perm``).  Rectangular ones get independent axis
    permutations: ``"degree"`` sorts each axis by its own (row/column)
    count; ``"bfs"``/``"rcm"`` traverse the bipartite structure — rows
    and columns as disjoint vertex sets — and split the one discovery
    order back into per-axis orders; ``"block"`` clusters columns by
    their dominant row block and leaves rows in place.
    """
    if matrix.n_rows == matrix.n_cols:
        perm = _square_perm(matrix, method, **kw)
        return permute_matrix(matrix, perm), perm, perm
    n_r, n_c = matrix.shape
    if method == "degree":
        row_perm = np.empty(n_r, dtype=np.int64)
        row_perm[np.argsort(-matrix.row_counts(), kind="stable")] = np.arange(n_r)
        col_perm = np.empty(n_c, dtype=np.int64)
        col_perm[np.argsort(-matrix.col_counts(), kind="stable")] = np.arange(n_c)
    elif method in ("bfs", "rcm"):
        # Bipartite traversal: columns live at ids n_rows..n_rows+n_cols-1.
        both = COOMatrix(
            n_r + n_c,
            n_r + n_c,
            matrix.rows,
            matrix.cols + n_r,
            matrix.vals,
            check=False,
        )
        perm_all = _square_perm(both, method, **kw)
        # Ranks within each side preserve the joint discovery order.
        row_perm = np.empty(n_r, dtype=np.int64)
        row_perm[np.argsort(perm_all[:n_r], kind="stable")] = np.arange(n_r)
        col_perm = np.empty(n_c, dtype=np.int64)
        col_perm[np.argsort(perm_all[n_r:], kind="stable")] = np.arange(n_c)
    elif method == "block":
        n_blocks = int(kw.pop("n_blocks", 16))
        if kw:
            raise WorkloadError(f"unknown block_order options {sorted(kw)}")
        n_blocks = max(1, min(n_blocks, n_r))
        rows_per_block = -(-n_r // n_blocks)
        block_of_row = matrix.rows // rows_per_block
        key = matrix.cols * np.int64(n_blocks) + block_of_row
        counts = np.bincount(key, minlength=n_c * n_blocks)
        owner = np.argmax(counts.reshape(n_c, n_blocks), axis=1)
        order = np.lexsort(
            (np.arange(n_c), -matrix.col_counts(), owner)
        )
        col_perm = np.empty(n_c, dtype=np.int64)
        col_perm[order] = np.arange(n_c)
        row_perm = np.arange(n_r, dtype=np.int64)
    else:
        raise WorkloadError(f"unknown reordering {method!r}")
    return permute_matrix(matrix, row_perm, col_perm), row_perm, col_perm


def reorder_graph(
    graph: Graph, method: str = "degree", **kw
) -> Tuple[Graph, np.ndarray]:
    """Return ``(reordered graph, perm)`` for any :data:`ORDERING_METHODS`."""
    perm = _square_perm(graph.adjacency, method, **kw)
    return (
        Graph(permute_matrix(graph.adjacency, perm), name=f"{graph.name}+{method}"),
        perm,
    )
