"""Compressed sparse column (CSC) storage for the outer-product kernel.

The paper's OP kernel stores the matrix "in a column-based sparse format,
i.e. CSC format, which stores the row index and the value for each non-zero
matrix element and an array of pointers to the start row index of each
column" (Section III-A).  Column slicing must be O(1) because the kernel
touches *only* the columns whose frontier entry is non-zero.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import FormatError, ShapeError
from .order import lex_order

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """Sparse matrix in CSC format with row indices sorted within columns.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    indptr:
        ``n_cols + 1`` monotone array; column ``j`` occupies
        ``indices[indptr[j]:indptr[j+1]]``.
    indices:
        Row index per stored entry, ascending within each column.
    vals:
        Value per stored entry.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "vals")

    def __init__(self, n_rows, n_cols, indptr, indices, vals, *, check=True):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if check:
            if len(indptr) != n_cols + 1:
                raise FormatError(
                    f"indptr must have n_cols+1={n_cols + 1} entries, got {len(indptr)}"
                )
            if indptr[0] != 0 or indptr[-1] != len(indices):
                raise FormatError("indptr must start at 0 and end at nnz")
            if np.any(np.diff(indptr) < 0):
                raise FormatError("indptr must be non-decreasing")
            if len(indices) != len(vals):
                raise FormatError("indices/vals length mismatch")
            if len(indices) and (indices.min() < 0 or indices.max() >= n_rows):
                raise FormatError("row index out of range")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = indptr
        self.indices = indices
        self.vals = vals

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.vals)

    @property
    def density(self) -> float:
        """``nnz / (n_rows * n_cols)``; 0.0 for an empty shape."""
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo) -> "CSCMatrix":
        """Convert a :class:`~repro.formats.coo.COOMatrix` (duplicates kept)."""
        order = lex_order((coo.rows, coo.cols))
        indices = coo.rows[order]
        vals = coo.vals[order]
        counts = np.bincount(coo.cols, minlength=coo.n_cols)
        indptr = np.zeros(coo.n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(coo.n_rows, coo.n_cols, indptr, indices, vals, check=False)

    @classmethod
    def of_transpose(cls, coo) -> Optional["CSCMatrix"]:
        """The CSC copy of ``coo.T`` read off ``coo``'s own arrays, or None.

        Column ``i`` of ``A.T`` is row ``i`` of ``A``, so ``A``'s
        row-major arrays are already the CSC of ``A.T``: ``indptr`` is
        ``A``'s row extents, ``indices`` its columns, ``vals`` its
        values, equal to ``from_coo(coo.transpose())`` without a sort.
        That needs ``A``'s ``(row, col)`` keys non-decreasing (an O(nnz)
        check); a matrix stored in another within-row order (a
        ``permute_matrix(stable=True)`` layout) returns None.  The
        columns and values are copied, so a write to ``coo`` never
        changes this matrix.
        """
        rows, cols = coo.rows, coo.cols
        if len(rows) > 1:
            step = np.diff(rows)
            if (step < 0).any() or ((step == 0) & (cols[1:] < cols[:-1])).any():
                return None
        return cls(
            coo.n_cols, coo.n_rows, coo.row_extents(), cols.copy(),
            coo.vals.copy(), check=False,
        )

    @classmethod
    def from_dense(cls, dense) -> "CSCMatrix":
        """Build from a 2-D numpy array."""
        from .coo import COOMatrix

        return cls.from_coo(COOMatrix.from_dense(dense))

    @classmethod
    def from_scipy(cls, mat) -> "CSCMatrix":
        """Build from any scipy.sparse matrix."""
        m = mat.tocsc()
        m.sort_indices()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    # ------------------------------------------------------------------
    def to_scipy(self):
        """Return a ``scipy.sparse.csc_matrix`` over the same buffers."""
        import scipy.sparse as sp

        return sp.csc_matrix(
            (self.vals, self.indices, self.indptr), shape=self.shape
        )

    def to_coo(self):
        """Convert back to row-major COO."""
        from .coo import COOMatrix

        cols = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        return COOMatrix(self.n_rows, self.n_cols, self.indices, cols, self.vals)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense 2-D array."""
        return self.to_coo().to_dense()

    # ------------------------------------------------------------------
    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_indices, values)`` of column ``j`` — the OP access unit."""
        if not 0 <= j < self.n_cols:
            raise ShapeError(f"column {j} outside [0, {self.n_cols})")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.vals[lo:hi]

    def row_extents(self) -> np.ndarray:
        """CSR-like row offsets: row ``i`` holds ``ptr[i+1] - ptr[i]``
        entries; the same array as the COO copy's
        :meth:`~repro.formats.coo.COOMatrix.row_extents`."""
        ptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=self.n_rows), out=ptr[1:])
        return ptr

    def column_lengths(self, js=None) -> np.ndarray:
        """Non-zeros per column; restricted to ``js`` when given."""
        lengths = np.diff(self.indptr)
        return lengths if js is None else lengths[np.asarray(js, dtype=np.int64)]

    def nonempty_columns(self, js) -> np.ndarray:
        """Subset of ``js`` whose column holds at least one entry.

        Power-law matrices frequently have empty columns; the paper notes
        (Section IV-B) that this shrinks the OP merge workload.
        """
        js = np.asarray(js, dtype=np.int64)
        return js[self.column_lengths(js) > 0]

    def gather_columns(self, js):
        """Concatenate columns ``js``: ``(row_indices, values, col_of_entry)``.

        Vectorised helper used by the fast (non-heap) OP implementation and
        by the access-profile builder: the returned arrays list every entry
        of every selected column in column-major order.
        """
        js = np.asarray(js, dtype=np.int64)
        lens = self.column_lengths(js)
        total = int(lens.sum())
        if total == 0:
            e = np.zeros(0, dtype=np.int64)
            return e, np.zeros(0), e
        starts = self.indptr[js]
        # Build the flat gather index: for each selected column, the run
        # starts[k] .. starts[k]+lens[k].
        offsets = np.repeat(starts, lens)
        within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        flat = offsets + within
        col_of_entry = np.repeat(js, lens)
        return self.indices[flat], self.vals[flat], col_of_entry
