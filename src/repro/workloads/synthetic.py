"""Synthetic matrix/graph generators.

The paper evaluates on "a combination of uniformly random matrices,
power-law matrices generated by NetworkX, and real-world graphs"
(Section IV-A).  NetworkX cannot generate millions of vertices in
reasonable time, so the power-law family here is a vectorised Chung-Lu
sampler (same degree-distribution family) plus an R-MAT sampler for
community-skewed graphs; tests cross-check small instances against
networkx's generators.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import WorkloadError
from ..formats import COOMatrix
from ..formats.order import lex_groups

__all__ = ["uniform_random", "chung_lu", "rmat", "power_law_degrees"]


def _finalize(n_rows, n_cols, rows, cols, vals, remove_self_loops):
    """Drop self-loops and duplicate coordinates (keeping one value each
    — a doubly sampled edge exists once, its weight is not doubled).

    Each coordinate keeps its first sampled entry, and the distinct
    coordinates come out in row-major order, so the matrix skips its
    own sort.
    """
    if remove_self_loops and n_rows == n_cols:
        keep = rows != cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order, starts = lex_groups((cols, rows))
    first = order[starts]
    return COOMatrix(
        n_rows, n_cols, rows[first], cols[first], vals[first], sort=False
    )


def _values(rng, count, weighted):
    if weighted:
        return rng.integers(1, 11, size=count).astype(np.float64)
    return np.ones(count)


def uniform_random(
    n_rows: int,
    n_cols: Optional[int] = None,
    nnz: Optional[int] = None,
    density: Optional[float] = None,
    seed: int = 0,
    weighted: bool = True,
    remove_self_loops: bool = False,
) -> COOMatrix:
    """Uniformly random sparse matrix with ~``nnz`` entries.

    Exactly one of ``nnz`` / ``density`` must be given.  Coordinates are
    sampled with replacement and duplicates folded, so the realised nnz
    is slightly below the target at high densities (documented, and
    irrelevant at the paper's 1e-6..1e-3 range).
    """
    n_cols = n_cols if n_cols is not None else n_rows
    if (nnz is None) == (density is None):
        raise WorkloadError("specify exactly one of nnz / density")
    if nnz is None:
        if not 0 < density <= 1:
            raise WorkloadError(f"density must be in (0, 1], got {density}")
        nnz = int(round(density * n_rows * n_cols))
    if nnz < 0 or nnz > n_rows * n_cols:
        raise WorkloadError(f"nnz {nnz} impossible for shape")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    return _finalize(
        n_rows, n_cols, rows, cols, _values(rng, nnz, weighted), remove_self_loops
    )


def power_law_degrees(n: int, exponent: float = 2.1) -> np.ndarray:
    """Expected-degree weights ``w_i ~ (i+1)^(-1/(exponent-1))``.

    The classic Chung-Lu construction: sampling endpoints proportionally
    to ``w`` yields a degree distribution with tail exponent
    ``exponent``.
    """
    if exponent <= 1.0:
        raise WorkloadError("power-law exponent must exceed 1")
    return (np.arange(1, n + 1, dtype=np.float64)) ** (-1.0 / (exponent - 1.0))


def chung_lu(
    n: int,
    n_edges: int,
    exponent: float = 2.1,
    seed: int = 0,
    weighted: bool = True,
    directed: bool = True,
    max_expected_degree: Optional[float] = None,
) -> COOMatrix:
    """Power-law (Chung-Lu) random graph adjacency with ~``n_edges``.

    Vertices are sampled independently for both endpoints with
    probability proportional to their power-law weight, producing the
    skewed, hub-dominated structure real social networks show (and the
    non-uniform work distribution Fig. 7 stresses).

    ``max_expected_degree`` caps the hubs.  An uncapped pure power law
    gives the top vertex a constant *fraction* of all edges, which real
    social graphs do not show (pokec's largest in-degree is ~9k out of
    31M edges); the default cap of ``2 * sqrt(n_edges)`` matches the
    Table III graphs' hub sizes.  Pass ``float("inf")`` for the raw law.
    """
    if n_edges < 0:
        raise WorkloadError("edge count must be non-negative")
    rng = np.random.default_rng(seed)
    w = power_law_degrees(n, exponent)
    p = w / w.sum()
    if max_expected_degree is None:
        max_expected_degree = 2.0 * float(np.sqrt(max(n_edges, 1)))
    if n_edges > 0 and np.isfinite(max_expected_degree):
        cap = max_expected_degree / n_edges
        for _ in range(8):  # renormalising can push others over the cap
            over = p > cap
            if not over.any():
                break
            excess = float(p[over].sum() - cap * over.sum())
            p[over] = cap
            under = ~over
            p[under] += excess * p[under] / max(p[under].sum(), 1e-300)
    src = rng.choice(n, size=n_edges, p=p)
    dst = rng.choice(n, size=n_edges, p=p)
    # random relabel so hubs are not clustered at low indices (which
    # would make equal-row partitions accidentally balanced)
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    vals = _values(rng, n_edges, weighted)
    if not directed:
        # canonicalise each pair before dedup so mirrored copies always
        # carry the same weight, then mirror
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        canon = _finalize(n, n, lo, hi, vals, remove_self_loops=True)
        src = np.concatenate([canon.rows, canon.cols])
        dst = np.concatenate([canon.cols, canon.rows])
        vals = np.concatenate([canon.vals, canon.vals])
        return _finalize(n, n, src, dst, vals, remove_self_loops=True)
    return _finalize(n, n, src, dst, vals, remove_self_loops=True)


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    weighted: bool = True,
) -> COOMatrix:
    """R-MAT graph: ``2**scale`` vertices, ``edge_factor`` edges each.

    The Graph500 recursive-quadrant sampler, fully vectorised: each of
    the ``scale`` bits of (row, col) picks a quadrant with probabilities
    ``(a, b, c, 1-a-b-c)``.
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise WorkloadError("R-MAT quadrant probabilities must sum to <= 1")
    n = 1 << scale
    n_edges = n * edge_factor
    rng = np.random.default_rng(seed)
    rows = np.zeros(n_edges, dtype=np.int64)
    cols = np.zeros(n_edges, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(n_edges)
        # quadrants: a: (0,0), b: (0,1), c: (1,0), d: (1,1)
        bit_col = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        bit_row = r >= a + b
        rows = (rows << 1) | bit_row.astype(np.int64)
        cols = (cols << 1) | bit_col.astype(np.int64)
    perm = rng.permutation(n)
    rows, cols = perm[rows], perm[cols]
    return _finalize(
        n, n, rows, cols, _values(rng, n_edges, weighted), remove_self_loops=True
    )
