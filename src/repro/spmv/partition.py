"""Static workload partitioning (Section III-B of the paper).

Inner product: "The sparse matrix is first statically partitioned into row
partitions with the same number of non-zero elements.  Each PE is assigned
one of the row partitions and thus obtains a similar amount of work.  The
row partitions are further divided into multiple vertical blocks (vblocks)
so that the vector elements corresponding to each vblock can fit in the
shared SPM."

Outer product: "the matrix is first divided into row partitions with the
same number of non-zero elements and assigned to each tile"; the frontier
non-zeros are then distributed dynamically by the LCP (see
:meth:`repro.formats.sparse_vector.SparseVector.chunk`).

The un-balanced baseline (equal *row-count* partitions) exists for the
Fig. 7 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError, ShapeError

__all__ = [
    "equal_nnz_row_bounds",
    "equal_rows_bounds",
    "split_rows",
    "commvol_row_bounds",
    "cut_columns",
    "nnz_per_partition",
    "run_starts",
    "sorted_distinct",
    "vblock_width",
    "IPPartition",
    "build_ip_partitions",
]


def equal_nnz_row_bounds(row_ptr: np.ndarray, n_parts: int) -> np.ndarray:
    """Row boundaries giving each of ``n_parts`` a near-equal nnz share.

    ``row_ptr`` is a CSR-style extent array (``row_ptr[i]`` = first entry
    of row ``i``).  Returns ``n_parts + 1`` row indices; partition ``p``
    owns rows ``bounds[p]:bounds[p+1]``.  Partitions split at row
    granularity ("disparate row partitions") so no two PEs ever write the
    same output element — the property that lets IP skip synchronisation.
    """
    if n_parts <= 0:
        raise ShapeError("n_parts must be positive")
    n_rows = len(row_ptr) - 1
    total = int(row_ptr[-1])
    targets = np.linspace(0, total, n_parts + 1)
    bounds = np.searchsorted(row_ptr, targets, side="left").astype(np.int64)
    bounds[0], bounds[-1] = 0, n_rows
    # Monotonicity can break on pathological skew (a single huge row);
    # clamp so every partition is a valid (possibly empty) range.
    np.maximum.accumulate(bounds, out=bounds)
    return bounds


def equal_rows_bounds(n_rows: int, n_parts: int) -> np.ndarray:
    """Naive equal-row-count boundaries (the "w/o partition" baseline)."""
    if n_parts <= 0:
        raise ShapeError("n_parts must be positive")
    return np.linspace(0, n_rows, n_parts + 1).astype(np.int64)


def split_rows(row_ptr: np.ndarray, n_parts: int, balanced: bool = True) -> np.ndarray:
    """Equal-nnz row bounds, or equal-rows ones with ``balanced=False``.

    The one place the Fig. 7 ablation switch is read: both levels of the
    IP partition and the OP kernel's tile split go through it.
    """
    if balanced:
        return equal_nnz_row_bounds(row_ptr, n_parts)
    return equal_rows_bounds(len(row_ptr) - 1, n_parts)


#: Boundary-refinement search: candidate rows probed on each side of an
#: equal-nnz boundary (communication-volume greedy pass).
_COMMVOL_CANDIDATES = 9

#: A refined boundary may not leave either adjacent partition with more
#: than this share of the pair's nnz (0.5 would be a perfect split).
_COMMVOL_MAX_SHARE = 0.6


def _boundary_cut(
    row_ptr: np.ndarray, cols: np.ndarray, lo: int, b: int, hi: int
) -> int:
    """Mutual cut columns of the adjacent pair split at row ``b``.

    Counts the distinct columns the left partition's rows reference that
    the right partition *owns* (rows ``[b, hi)``) plus the symmetric
    term — the vertices the two sides would have to exchange when the
    frontier touches every cut column (the per-pair communication
    volume of a full frontier, per Akbudak et al.'s row-parallel model).
    Requires ``cols`` in row-major entry order (COO sorted by row).
    """
    left = np.unique(cols[row_ptr[lo]:row_ptr[b]])
    right = np.unique(cols[row_ptr[b]:row_ptr[hi]])
    return int(
        np.count_nonzero((left >= b) & (left < hi))
        + np.count_nonzero((right >= lo) & (right < b))
    )


def commvol_row_bounds(
    row_ptr: np.ndarray,
    cols: np.ndarray,
    n_parts: int,
    window: Optional[int] = None,
) -> np.ndarray:
    """Equal-nnz bounds refined to reduce communication volume.

    Starts from :func:`equal_nnz_row_bounds` and greedily shifts each
    interior boundary within ``window`` rows (default: 1/32 of the
    adjacent pair's row span) to the candidate with the fewest mutual
    cut columns, subject to neither side exceeding
    ``_COMMVOL_MAX_SHARE`` of the pair's nnz.  Partitions stay
    contiguous row ranges, so downstream shard merges remain order- and
    bit-identical; the search is deterministic (ties keep the smallest
    shift, preferring the original equal-nnz boundary).
    """
    bounds = equal_nnz_row_bounds(row_ptr, n_parts).copy()
    cols = np.asarray(cols)
    for p in range(1, n_parts):
        lo, b0, hi = int(bounds[p - 1]), int(bounds[p]), int(bounds[p + 1])
        if hi - lo < 2:
            continue
        span = window if window is not None else max(1, (hi - lo) // 32)
        offsets = np.unique(
            np.linspace(-span, span, _COMMVOL_CANDIDATES).astype(np.int64)
        )
        # Smallest |shift| first so ties keep the equal-nnz boundary.
        offsets = offsets[np.argsort(np.abs(offsets), kind="stable")]
        pair_nnz = int(row_ptr[hi] - row_ptr[lo])
        best_b, best_cost = b0, None
        for off in offsets:
            b = int(np.clip(b0 + off, lo, hi))
            left_nnz = int(row_ptr[b] - row_ptr[lo])
            if pair_nnz and (
                max(left_nnz, pair_nnz - left_nnz)
                > _COMMVOL_MAX_SHARE * pair_nnz
                and b != b0
            ):
                continue
            cost = _boundary_cut(row_ptr, cols, lo, b, hi)
            if best_cost is None or cost < best_cost:
                best_b, best_cost = b, cost
        bounds[p] = best_b
    np.maximum.accumulate(bounds, out=bounds)
    return bounds


def cut_columns(
    row_ptr: np.ndarray, cols: np.ndarray, bounds: np.ndarray
) -> int:
    """Total distinct columns partitions reference outside their own rows.

    The static communication volume of a row partitioning under a full
    frontier: each partition must fetch every distinct column it touches
    that some other partition owns.  Requires ``cols`` in row-major
    entry order.
    """
    total = 0
    cols = np.asarray(cols)
    for p in range(len(bounds) - 1):
        lo, hi = int(bounds[p]), int(bounds[p + 1])
        touched = np.unique(cols[row_ptr[lo]:row_ptr[hi]])
        total += int(np.count_nonzero((touched < lo) | (touched >= hi)))
    return total


def nnz_per_partition(row_ptr: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Non-zeros inside each partition delimited by ``bounds``."""
    at = row_ptr[bounds]
    return np.diff(at)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``keys`` that start a run of equal keys."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by one sort and each run's first key (numpy 2.x
    hashes in ``np.unique``: 15-20 times a sort at kernel sizes)."""
    keys = np.sort(keys)
    return keys[run_starts(keys)]


def vblock_width(spm_words: int, value_words: int = 1) -> int:
    """Columns per vertical block so the vector segment fits in the SPM."""
    if spm_words <= 0:
        raise ShapeError("vblock sizing needs a positive SPM capacity")
    return max(1, spm_words // max(value_words, 1))


@dataclass(frozen=True)
class IPPartition:
    """The static row schedule for one geometry.

    ``tile_bounds`` split rows across tiles; ``pe_bounds[t]`` split tile
    ``t``'s rows across its PEs.  Both are equal-nnz unless ``balanced``
    was disabled (Fig. 7's ablation).  The IP kernel reads both levels;
    the OP kernel reads only ``tile_bounds``, since its PEs take frontier
    chunks rather than rows.
    """

    tile_bounds: np.ndarray
    pe_bounds: List[np.ndarray]
    balanced: bool

    def pe_row_range(self, tile: int, pe: int):
        """Row range ``[lo, hi)`` owned by PE ``pe`` of tile ``tile``."""
        b = self.pe_bounds[tile]
        return int(b[pe]), int(b[pe + 1])

    def check_fits(self, n_rows: int, geometry) -> None:
        """A reused partition must have been built for this geometry and matrix."""
        bounds = self.pe_bounds
        fits = (
            len(bounds) == geometry.tiles
            and all(len(b) == geometry.pes_per_tile + 1 for b in bounds)
            and int(bounds[0][0]) == 0
            and int(bounds[-1][-1]) == n_rows
        )
        if not fits:
            raise ConfigurationError(
                f"partition does not fit geometry {geometry.name} over "
                f"{n_rows} rows: it needs {geometry.tiles} tiles of "
                f"{geometry.pes_per_tile + 1} PE bounds covering rows "
                f"[0, {n_rows}]"
            )


def build_ip_partitions(
    row_ptr: np.ndarray, tiles: int, pes_per_tile: int, balanced: bool = True
) -> IPPartition:
    """Two-level (tile, PE) row partitioning for the IP kernel."""
    tile_bounds = split_rows(row_ptr, tiles, balanced)
    pe_bounds = []
    for t in range(tiles):
        lo, hi = int(tile_bounds[t]), int(tile_bounds[t + 1])
        sub_ptr = row_ptr[lo : hi + 1] - row_ptr[lo]
        pe_bounds.append(split_rows(sub_ptr, pes_per_tile, balanced) + lo)
    return IPPartition(tile_bounds=tile_bounds, pe_bounds=pe_bounds, balanced=balanced)
