"""Format conversions and their modelled costs.

Section III-D2 of the paper: "two copies of the input compressed sparse
matrix (in COO and CSC formats, respectively) are stored in main memory to
avoid matrix conversion overhead ... whereas the lightweight vector
conversion between sparse and dense format is performed for the iterations
that require reconfiguration."

This module performs those vector conversions functionally *and* reports
the data movement they imply, so the runtime can charge the conversion to
the iteration that triggered a software reconfiguration.  The word counts
live in one function, :func:`conversion_cost`, which the runtime also
charges batched columns through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError
from .dense import DenseVector
from .sparse_vector import SparseVector

__all__ = [
    "ConversionCost",
    "conversion_cost",
    "dense_to_sparse",
    "sparse_to_dense",
    "ensure_dense",
    "ensure_sparse",
    "vector_density",
]


@dataclass(frozen=True)
class ConversionCost:
    """Word traffic implied by one vector format conversion.

    Attributes
    ----------
    reads, writes:
        Words read from / written to memory by the conversion pass.
    """

    reads: int = 0
    writes: int = 0

    @property
    def words(self) -> int:
        """Total words moved."""
        return self.reads + self.writes

    def __add__(self, other: "ConversionCost") -> "ConversionCost":
        return ConversionCost(self.reads + other.reads, self.writes + other.writes)


#: A conversion that moved nothing (input already in the right format).
NO_COST = ConversionCost()


def conversion_cost(source: str, target: str, n: int, nnz: int) -> ConversionCost:
    """Words moved to bring an ``n``-long frontier of ``nnz`` entries from
    ``source`` to ``target`` format (``"dense"`` or ``"sparse"``).

    Dense to sparse scans all ``n`` words and writes ``2·nnz`` (index +
    value); sparse to dense clears ``n`` words, reads the ``2·nnz`` pair
    words and writes ``nnz``.  The same format costs nothing.
    """
    if {source, target} - {"dense", "sparse"}:
        raise FormatError(f"cannot convert {source!r} to {target!r}")
    if source == target:
        return NO_COST
    if target == "sparse":
        return ConversionCost(reads=n, writes=2 * nnz)
    return ConversionCost(reads=2 * nnz, writes=n + nnz)


def dense_to_sparse(vec: DenseVector, absent: float = 0.0):
    """Compact a dense frontier into (index, value) pairs.

    ``absent`` is the inactive-entry marker of the semiring the frontier
    belongs to (0 for additive, ``+inf`` for min-plus).
    """
    sv = vec.to_sparse(absent=absent)
    return sv, conversion_cost("dense", "sparse", vec.n, sv.nnz)


def sparse_to_dense(vec: SparseVector):
    """Scatter a sparse frontier into a dense array."""
    dv = DenseVector(vec.to_dense())
    return dv, conversion_cost("sparse", "dense", vec.n, vec.nnz)


def ensure_dense(vec):
    """Return ``(DenseVector, ConversionCost)`` whatever ``vec`` is."""
    if isinstance(vec, DenseVector):
        return vec, NO_COST
    if isinstance(vec, SparseVector):
        return sparse_to_dense(vec)
    return DenseVector(np.asarray(vec, dtype=np.float64)), NO_COST


def ensure_sparse(vec, absent: float = 0.0):
    """Return ``(SparseVector, ConversionCost)`` whatever ``vec`` is."""
    if isinstance(vec, SparseVector):
        return vec, NO_COST
    if isinstance(vec, DenseVector):
        return dense_to_sparse(vec, absent=absent)
    return dense_to_sparse(
        DenseVector(np.asarray(vec, dtype=np.float64)), absent=absent
    )


def vector_density(vec) -> float:
    """Structural density of any frontier representation or raw array."""
    if isinstance(vec, (DenseVector, SparseVector)):
        return vec.density
    arr = np.asarray(vec)
    return float(np.count_nonzero(arr)) / len(arr) if len(arr) else 0.0
