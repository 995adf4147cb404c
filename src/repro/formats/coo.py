"""Row-major COO sparse matrix storage.

The paper's inner-product (IP) kernel streams the matrix in row-major
coordinate order: "the matrix is partitioned into disparate row partitions
which are stored in row-major COO format to facilitate spatial locality for
accesses" (Section III-A).  This module provides exactly that container: a
``(rows, cols, vals)`` triple sorted lexicographically by ``(row, col)``,
with helpers for the equal-nnz row partitioning and vertical blocking
(vblocks) the IP scheduler relies on.

The container is deliberately scipy-free so the kernels control the precise
data layout that the hardware model charges for; conversion helpers to and
from :mod:`scipy.sparse` exist for testing against reference
implementations.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..errors import FormatError, ShapeError
from .order import lex_groups, lex_order

__all__ = ["COOMatrix"]


class COOMatrix:
    """Sparse matrix in row-major coordinate (COO) format.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    rows, cols:
        Integer index arrays of equal length, one entry per non-zero.
    vals:
        Value array of the same length.
    sort:
        When true (default), entries are sorted into row-major order.  Pass
        ``False`` only when the caller guarantees the order (e.g. data read
        back from :meth:`to_arrays`).
    check:
        When true (default), validate index bounds and array lengths.

    Notes
    -----
    Duplicate ``(row, col)`` coordinates are allowed and are interpreted
    additively, matching scipy's convention; :meth:`sum_duplicates` folds
    them.  The kernels in :mod:`repro.spmv` expect duplicate-free input and
    the workload generators never produce duplicates.
    """

    __slots__ = ("n_rows", "n_cols", "rows", "cols", "vals")

    def __init__(self, n_rows, n_cols, rows, cols, vals, *, sort=True, check=True):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if check:
            if rows.ndim != 1 or cols.ndim != 1 or vals.ndim != 1:
                raise FormatError("rows, cols and vals must be 1-D arrays")
            if not (len(rows) == len(cols) == len(vals)):
                raise FormatError(
                    "index/value length mismatch: "
                    f"{len(rows)} rows, {len(cols)} cols, {len(vals)} vals"
                )
            if n_rows < 0 or n_cols < 0:
                raise FormatError("matrix dimensions must be non-negative")
            if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
                raise FormatError("row index out of range")
            if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
                raise FormatError("column index out of range")
        if sort and len(rows):
            order = lex_order((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = rows
        self.cols = cols
        self.vals = vals

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return len(self.vals)

    @property
    def density(self) -> float:
        """``nnz / (n_rows * n_cols)``; 0.0 for an empty shape."""
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"COOMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense) -> "COOMatrix":
        """Build from a 2-D numpy array, storing its non-zero entries."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        """Build from any scipy.sparse matrix (used by tests/workloads)."""
        m = mat.tocoo()
        return cls(m.shape[0], m.shape[1], m.row, m.col, m.data)

    @classmethod
    def summed(cls, n_rows, n_cols, rows, cols, vals) -> "COOMatrix":
        """A row-major matrix of entries given in any order, duplicate
        coordinates folded additively, in one ordering.

        Each coordinate's duplicates add in stored order (``np.add.at``),
        which a stable ordering of the entries would keep: ordering them
        first changes no value.
        """
        entries = cls(n_rows, n_cols, rows, cols, vals, sort=False)
        order, starts = lex_groups((entries.cols, entries.rows))
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.cumsum(starts) - 1
        first = order[starts]
        folded = np.zeros(len(first))
        np.add.at(folded, inverse, entries.vals)
        return cls(
            n_rows, n_cols, entries.rows[first], entries.cols[first], folded,
            sort=False, check=False,
        )

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        z = np.zeros(0)
        return cls(n_rows, n_cols, z, z, z, sort=False)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense 2-D array (duplicates add)."""
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def to_scipy(self):
        """Return a ``scipy.sparse.coo_matrix`` view of the same data."""
        import scipy.sparse as sp

        return sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=self.shape)

    def to_arrays(self):
        """Return the raw ``(rows, cols, vals)`` triple (row-major order)."""
        return self.rows, self.cols, self.vals

    def sum_duplicates(self) -> "COOMatrix":
        """Fold duplicate coordinates additively into a canonical matrix."""
        if not self.nnz:
            return self
        return COOMatrix.summed(
            self.n_rows, self.n_cols, self.rows, self.cols, self.vals
        )

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (re-sorted into row-major order).

        Graph algorithms invoke ``SpMV(G.T, f)`` (Fig. 2); the
        :class:`repro.graphs.graph.Graph` container pre-computes this once.

        Every matrix keeps its rows non-decreasing, so a stable ordering
        by the new row key alone already leaves each new row's entries
        in ascending new column, equal coordinates in stored order:
        the permutation a two-key ordering would give.
        """
        order = lex_order((self.cols,))
        return COOMatrix(
            self.n_cols,
            self.n_rows,
            self.cols[order],
            self.rows[order],
            self.vals[order],
            sort=False,
            check=False,
        )

    # ------------------------------------------------------------------
    # Degree / structure queries used by partitioning and algorithms
    # ------------------------------------------------------------------
    def row_counts(self) -> np.ndarray:
        """Non-zeros per row (out-degree when rows are sources)."""
        return np.bincount(self.rows, minlength=self.n_rows).astype(np.int64)

    def col_counts(self) -> np.ndarray:
        """Non-zeros per column (in-degree when rows are sources)."""
        return np.bincount(self.cols, minlength=self.n_cols).astype(np.int64)

    def row_extents(self) -> np.ndarray:
        """Offsets of each row's run in the sorted arrays (CSR-like indptr)."""
        ptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.rows, minlength=self.n_rows), out=ptr[1:])
        return ptr

    # ------------------------------------------------------------------
    # Slicing used by the IP scheduler
    # ------------------------------------------------------------------
    def row_range(self, start_row: int, stop_row: int) -> "COOMatrix":
        """Entries whose row index lies in ``[start_row, stop_row)``.

        Rows in the returned partition keep their *original* indices so the
        kernel writes to the correct output segment.
        """
        if not 0 <= start_row <= stop_row <= self.n_rows:
            raise ShapeError(
                f"row range [{start_row}, {stop_row}) outside [0, {self.n_rows})"
            )
        lo = np.searchsorted(self.rows, start_row, side="left")
        hi = np.searchsorted(self.rows, stop_row, side="left")
        return COOMatrix(
            self.n_rows,
            self.n_cols,
            self.rows[lo:hi],
            self.cols[lo:hi],
            self.vals[lo:hi],
            sort=False,
            check=False,
        )

    def nnz_slice(self, start: int, stop: int) -> "COOMatrix":
        """Entries ``start:stop`` of the row-major stream (equal-nnz split)."""
        return COOMatrix(
            self.n_rows,
            self.n_cols,
            self.rows[start:stop],
            self.cols[start:stop],
            self.vals[start:stop],
            sort=False,
            check=False,
        )

    def iter_vblocks(self, vblock_cols: int) -> Iterator[Tuple[int, np.ndarray]]:
        """Iterate vertical blocks: yields ``(block_start_col, entry_mask)``.

        The IP scheduler divides a row partition "into multiple vertical
        blocks (vblocks) so that the vector elements corresponding to each
        vblock can fit in the shared SPM" (Section III-B).  ``entry_mask``
        selects this vblock's entries out of the partition's arrays.
        """
        if vblock_cols <= 0:
            raise ShapeError("vblock width must be positive")
        block_of = self.cols // vblock_cols
        for b in range(0, -(-self.n_cols // vblock_cols)):
            yield b * vblock_cols, block_of == b

    # ------------------------------------------------------------------
    # Equality helper for tests
    # ------------------------------------------------------------------
    def allclose(self, other: "COOMatrix", **kw) -> bool:
        """Structural + numerical equality after canonicalisation."""
        a, b = self.sum_duplicates(), other.sum_duplicates()
        return (
            a.shape == b.shape
            and a.nnz == b.nnz
            and bool(np.array_equal(a.rows, b.rows))
            and bool(np.array_equal(a.cols, b.cols))
            and bool(np.allclose(a.vals, b.vals, **kw))
        )
