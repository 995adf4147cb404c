"""Multi-frontier container for the batched (SpMM-style) SpMV path.

A :class:`MultiVector` stacks ``K`` same-length frontiers: a dense
``(n, K)`` block for the inner-product kernel plus per-column sparse
views for the outer product, with per-column *structural* density so the
decision tree can split a heterogeneous batch into per-configuration
groups.  The dense block is held column-major (Fortran order) so each
column is a contiguous array — the batched IP kernel gathers one column
at a time.

Every column remembers its *native* representation (what the caller
supplied) and its structural non-zero count, because the runtime charges
frontier format conversions per column exactly the way the sequential
path does, through :func:`~repro.formats.convert.conversion_cost`: a
natively sparse column pays to materialise densely, a natively dense one
pays the compaction scan, and a column already in the kernel's format is
free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import FormatError, ShapeError
from .dense import DenseVector
from .sparse_vector import SparseVector

__all__ = ["MultiVector"]

ColumnLike = Union[SparseVector, DenseVector, np.ndarray]


class MultiVector:
    """``K`` stacked frontiers over the same ``n`` vertices.

    Parameters
    ----------
    columns:
        Sequence of frontiers (:class:`SparseVector`,
        :class:`DenseVector`, or 1-D arrays), one per batch column.
    absent:
        The value an inactive vertex holds in the dense block (0 for
        additive semirings, ``+inf`` for min-plus ones) — must match the
        semiring the batch will run under.
    n:
        Vector length; inferred from the first column when omitted.
    """

    __slots__ = ("n", "k", "absent", "block", "_sparse", "_native", "_nnz")

    def __init__(
        self,
        columns: Sequence[ColumnLike],
        absent: float = 0.0,
        n: Optional[int] = None,
    ):
        columns = list(columns)
        if not columns:
            raise FormatError("MultiVector needs at least one column")
        if n is None:
            n = len(columns[0])
        self.n = int(n)
        self.k = len(columns)
        self.absent = float(absent)
        # Column-major so block[:, j] is contiguous for the IP gather.
        self.block = np.full((self.n, self.k), self.absent, order="F")
        self._sparse: List[Optional[SparseVector]] = [None] * self.k
        self._native: List[str] = []
        self._nnz = np.zeros(self.k, dtype=np.int64)
        for j, col in enumerate(columns):
            if len(col) != self.n:
                raise ShapeError(
                    f"column {j} has length {len(col)}, expected {self.n}"
                )
            if isinstance(col, SparseVector):
                self.block[col.indices, j] = col.values
                self._sparse[j] = col
                self._native.append("sparse")
                self._nnz[j] = col.nnz
            else:
                arr = col.data if isinstance(col, DenseVector) else np.asarray(
                    col, dtype=np.float64
                )
                if arr.ndim != 1:
                    raise FormatError("dense columns must be 1-D")
                self.block[:, j] = arr
                self._native.append("dense")
                self._nnz[j] = int(np.count_nonzero(arr != self.absent))

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, block, absent: float = 0.0) -> "MultiVector":
        """Build from an ``(n, K)`` array; each column becomes a frontier."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2:
            raise FormatError("from_dense expects an (n, K) array")
        return cls([block[:, j] for j in range(block.shape[1])], absent=absent)

    # ------------------------------------------------------------------
    @property
    def shape(self):
        """``(n, K)``."""
        return (self.n, self.k)

    @property
    def nnz(self) -> int:
        """Total structural non-zeros across all columns."""
        return int(self._nnz.sum())

    def column_nnz(self, j: int) -> int:
        """Structural non-zeros of column ``j``."""
        return int(self._nnz[j])

    def density(self, j: int) -> float:
        """Structural density of column ``j`` under its *native* view.

        Matches the sequential runtime's
        :meth:`~repro.core.runtime.CoSparseRuntime.frontier_density`: a
        natively sparse column counts its stored entries (explicit
        absent-valued entries included), a dense one counts entries that
        differ from ``absent``.
        """
        return self.column_nnz(j) / self.n if self.n else 0.0

    @property
    def densities(self) -> np.ndarray:
        """Per-column structural densities."""
        if self.n == 0:
            return np.zeros(self.k)
        return self._nnz / float(self.n)

    def native(self, j: int) -> str:
        """``"sparse"`` or ``"dense"`` — the representation supplied."""
        return self._native[j]

    def __len__(self) -> int:
        return self.n

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"MultiVector(n={self.n}, k={self.k}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    def column_dense(self, j: int) -> np.ndarray:
        """Column ``j`` as a contiguous dense array (absent-filled)."""
        return self.block[:, j]

    def column_sparse(self, j: int) -> SparseVector:
        """Column ``j`` as a :class:`SparseVector` (built once, cached)."""
        sv = self._sparse[j]
        if sv is None:
            col = self.block[:, j]
            idx = np.nonzero(col != self.absent)[0]
            sv = SparseVector(self.n, idx, col[idx], sort=False, check=False)
            self._sparse[j] = sv
        return sv

    # ------------------------------------------------------------------
    def select(self, columns) -> "MultiVector":
        """A new MultiVector holding the selected columns (same order).

        Used by the multi-source drivers to retire converged columns
        from the batch while the survivors keep advancing in lockstep.
        """
        columns = np.asarray(columns, dtype=np.int64)
        if len(columns) == 0:
            raise FormatError("select needs at least one column")
        if columns.min() < 0 or columns.max() >= self.k:
            raise FormatError("column index out of range")
        picked: List[ColumnLike] = []
        for j in columns:
            if self._native[j] == "sparse":
                picked.append(self.column_sparse(int(j)))
            else:
                picked.append(self.block[:, int(j)])
        return MultiVector(picked, absent=self.absent, n=self.n)
