"""CoSPARSE's SpMV kernels and their supporting machinery.

Two algorithms implement the same semiring SpMV abstraction:

* :func:`~repro.spmv.inner.inner_product` — dense-frontier IP, row-major
  COO streaming, equal-nnz row partitions, vblocks (runs under SC/SCS);
* :func:`~repro.spmv.outer.outer_product` — sparse-frontier OP, CSC
  column heap-merge with LCP write-back (runs under PC/PS).

Both return an :class:`~repro.spmv.result.SpMVResult` carrying the
functional output *and* the hardware profile the decision layer prices.
"""

from .batch import inner_product_batch, outer_product_batch
from .inner import inner_product
from .outer import outer_product
from .partition import (
    IPPartition,
    build_ip_partitions,
    commvol_row_bounds,
    cut_columns,
    equal_nnz_row_bounds,
    equal_rows_bounds,
    nnz_per_partition,
    vblock_width,
)
from .reference import reference_spmv, scipy_spmv
from .result import SpMVResult
from .semiring import (
    Semiring,
    bfs_semiring,
    cf_semiring,
    pagerank_semiring,
    spmv_semiring,
    sssp_semiring,
)

__all__ = [
    "inner_product",
    "inner_product_batch",
    "outer_product",
    "outer_product_batch",
    "IPPartition",
    "build_ip_partitions",
    "commvol_row_bounds",
    "cut_columns",
    "equal_nnz_row_bounds",
    "equal_rows_bounds",
    "nnz_per_partition",
    "vblock_width",
    "reference_spmv",
    "scipy_spmv",
    "SpMVResult",
    "Semiring",
    "bfs_semiring",
    "cf_semiring",
    "pagerank_semiring",
    "spmv_semiring",
    "sssp_semiring",
]
