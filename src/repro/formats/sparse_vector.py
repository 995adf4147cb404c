"""Sparse (index, value) frontier vector.

The OP kernel consumes the frontier "stored in a sparse format, i.e.
(index, value) tuples of the vector non-zero elements" (Section III-A).
Graph algorithms flip the frontier between this representation and the
dense array used by IP from iteration to iteration; the conversion cost is
modelled in :mod:`repro.formats.convert`.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError

__all__ = ["SparseVector"]


class SparseVector:
    """A length-``n`` vector stored as sorted ``(index, value)`` pairs.

    Entries with an explicit zero value are permitted (a graph algorithm may
    put a vertex with value 0 on the frontier); *structural* sparsity is
    what the kernels and the decision tree care about.
    """

    __slots__ = ("n", "indices", "values")

    def __init__(self, n, indices, values, *, sort=True, check=True):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if check:
            if indices.ndim != 1 or values.ndim != 1:
                raise FormatError("indices and values must be 1-D")
            if len(indices) != len(values):
                raise FormatError(
                    f"length mismatch: {len(indices)} indices, {len(values)} values"
                )
            if len(indices) and (indices.min() < 0 or indices.max() >= n):
                raise FormatError("index out of range")
        if sort and len(indices):
            order = np.argsort(indices, kind="stable")
            indices, values = indices[order], values[order]
        if check:
            # Duplicates sit side by side once sorted.
            ordered = indices if sort else np.sort(indices)
            if np.any(ordered[1:] == ordered[:-1]):
                raise FormatError("duplicate indices in sparse vector")
        self.n = int(n)
        self.indices = indices
        self.values = values

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries (structural non-zeros)."""
        return len(self.indices)

    @property
    def density(self) -> float:
        """``nnz / n`` — the quantity driving the software reconfiguration."""
        return self.nnz / self.n if self.n else 0.0

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"SparseVector(n={self.n}, nnz={self.nnz}, density={self.density:.3g})"

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense, absent: float = 0.0) -> "SparseVector":
        """Keep the entries of a dense array that differ from ``absent``.

        ``absent`` is the value an *inactive* vertex holds in the dense
        representation — 0 for additive semirings, ``+inf`` for min-plus
        ones (BFS/SSSP).  Keying on ``!= absent`` rather than ``!= 0``
        keeps live zero-valued entries (a source vertex at distance 0)
        and drops truly absent ones.
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1:
            raise FormatError("from_dense expects a 1-D array")
        idx = np.nonzero(dense != absent)[0]
        return cls(len(dense), idx, dense[idx], sort=False, check=False)

    @classmethod
    def empty(cls, n: int) -> "SparseVector":
        """A vector with no stored entries."""
        return cls(n, np.zeros(0, dtype=np.int64), np.zeros(0), sort=False)

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Scatter into a dense length-``n`` array."""
        out = np.zeros(self.n)
        out[self.indices] = self.values
        return out

    def chunk(self, n_chunks: int):
        """Split the entries into ``n_chunks`` contiguous, near-even runs.

        Models the LCP's dynamic distribution: "the LCP distributes the
        non-zero elements of the vector evenly to each PE, such that the
        number of columns assigned to each PE ... is roughly the same"
        (Section III-B).  Returns a list of ``(indices, values)`` pairs;
        chunks may be empty when ``nnz < n_chunks``.
        """
        if n_chunks <= 0:
            raise FormatError("n_chunks must be positive")
        bounds = np.linspace(0, self.nnz, n_chunks + 1).astype(np.int64)
        return [
            (self.indices[lo:hi], self.values[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def allclose(self, other: "SparseVector", **kw) -> bool:
        """Equality on the materialised dense view (tests)."""
        return self.n == other.n and bool(
            np.allclose(self.to_dense(), other.to_dense(), **kw)
        )
