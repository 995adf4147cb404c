"""Sparse and dense storage substrate used by every kernel and baseline.

CoSPARSE keeps two copies of the adjacency matrix resident (COO for the
inner-product kernel, CSC for the outer-product kernel — paper §III-D2),
streams frontiers as either dense arrays or sorted (index, value) pairs,
and converts vectors between the two at reconfiguration points.
"""

from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix
from .dense import DenseVector
from .multivector import MultiVector
from .sparse_vector import SparseVector
from .convert import (
    ConversionCost,
    conversion_cost,
    dense_to_sparse,
    ensure_dense,
    ensure_sparse,
    sparse_to_dense,
    vector_density,
)

__all__ = [
    "COOMatrix",
    "CSCMatrix",
    "CSRMatrix",
    "DenseVector",
    "MultiVector",
    "SparseVector",
    "ConversionCost",
    "conversion_cost",
    "dense_to_sparse",
    "sparse_to_dense",
    "ensure_dense",
    "ensure_sparse",
    "vector_density",
]
