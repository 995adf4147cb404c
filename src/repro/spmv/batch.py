"""Batched (SpMM-style) SpMV kernels over a :class:`MultiVector`.

Multi-source traversals (BFS/SSSP from K roots, batched PageRank
personalisation) issue K independent SpMV invocations per superstep.  The
kernels here run one *batch* of same-config columns against one matrix:

* :func:`inner_product_batch` places the static IP schedule (partition
  check, vblock layout, per-PE entry edges) once and runs every dense
  column through :func:`~repro.spmv.inner._ip_column`, the per-column
  helper the sequential kernel calls too;
* :func:`outer_product_batch` gathers the CSC columns of the **union**
  frontier once and slices each batch column's entries out of the union
  gather, so overlapping frontiers do not re-read the matrix.

Everything a column observes — functional values, touched mask, and the
:class:`~repro.hardware.profile.KernelProfile` the pricing layer consumes
— is **bit-identical** to running the sequential kernel on that column
alone.  The profiles are built by the very same helpers
(:func:`~repro.spmv.inner._build_ip_profile`,
:func:`~repro.spmv.outer._build_op_profile`) the sequential kernels use,
so hardware pricing stays per-query-faithful; only redundant *structural*
work is shared.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..analysis import sanitize
from ..errors import ConfigurationError, ShapeError
from ..formats import COOMatrix, CSCMatrix, MultiVector
from ..hardware import Geometry, HWMode
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..obs.tracer import traced
from ..perf import counters as _perf
from .inner import _ip_column, _ip_schedule
from .outer import _build_op_profile, _op_stats
from .partition import IPPartition, equal_nnz_row_bounds, equal_rows_bounds
from .result import SpMVResult
from .semiring import Semiring

__all__ = ["inner_product_batch", "outer_product_batch"]


def _check_batch_args(frontiers, matrix_cols: int, semiring: Semiring, columns, currents):
    """Shared validation; returns the resolved (columns, currents) lists."""
    if not isinstance(frontiers, MultiVector):
        raise ShapeError("batched kernels expect a MultiVector frontier batch")
    if frontiers.n != matrix_cols:
        raise ShapeError(
            f"frontier length {frontiers.n} incompatible with a "
            f"{matrix_cols}-column matrix"
        )
    if semiring.value_words != 1:
        raise ConfigurationError(
            "the batched kernels handle scalar semirings; vector-valued "
            f"semirings like {semiring.name} already batch internally"
        )
    if columns is None:
        columns = list(range(frontiers.k))
    else:
        columns = [int(j) for j in columns]
        for j in columns:
            if not 0 <= j < frontiers.k:
                raise ShapeError(f"batch column {j} outside [0, {frontiers.k})")
    if currents is None:
        currents = [None] * len(columns)
    else:
        currents = list(currents)
        if len(currents) != len(columns):
            raise ShapeError(
                f"{len(currents)} current vectors for {len(columns)} columns"
            )
    return columns, currents


# ----------------------------------------------------------------------
# Inner product
# ----------------------------------------------------------------------
@traced("kernel.inner_product_batch", capture=("hw_mode", "columns", "profile_only"))
def inner_product_batch(
    matrix: COOMatrix,
    frontiers: MultiVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.SC,
    params: HardwareParams = DEFAULT_PARAMS,
    currents: Optional[Sequence[Optional[np.ndarray]]] = None,
    partition: Optional[IPPartition] = None,
    balanced: bool = True,
    columns: Optional[Sequence[int]] = None,
    profile_only: bool = False,
    vblock_width: Optional[int] = None,
) -> List[SpMVResult]:
    """Batched IP SpMV: one result per selected column, in ``columns`` order.

    Parameters mirror :func:`~repro.spmv.inner.inner_product`, with the
    dense vector replaced by a :class:`MultiVector` (whose ``absent``
    must match the semiring's) plus optional per-column ``currents`` and
    a ``columns`` selection.  Address-trace generation is sequential-only.
    """
    schedule = _ip_schedule(
        matrix, geometry, hw_mode, params, partition, balanced, 1,
        vblock_width, "inner_product_batch",
    )
    columns, currents = _check_batch_args(
        frontiers, matrix.n_cols, semiring, columns, currents
    )
    if frontiers.absent != semiring.absent:
        raise ConfigurationError(
            f"MultiVector absent={frontiers.absent} does not match "
            f"semiring {semiring.name} absent={semiring.absent}"
        )
    _perf.kernel_batched_columns += len(columns)
    return [
        _ip_column(
            matrix,
            schedule,
            frontiers.column_dense(j),
            semiring,
            current,
            profile_only,
            with_trace=False,
            label=f"inner_product_batch/active[{j}]",
        )
        for j, current in zip(columns, currents)
    ]


# ----------------------------------------------------------------------
# Outer product
# ----------------------------------------------------------------------
@traced("kernel.outer_product_batch", capture=("hw_mode", "columns", "profile_only"))
def outer_product_batch(
    matrix: CSCMatrix,
    frontiers: MultiVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.PC,
    params: HardwareParams = DEFAULT_PARAMS,
    currents: Optional[Sequence[Optional[np.ndarray]]] = None,
    balanced: bool = True,
    columns: Optional[Sequence[int]] = None,
    profile_only: bool = False,
) -> List[SpMVResult]:
    """Batched OP SpMV: one result per selected column, in ``columns`` order.

    Parameters mirror :func:`~repro.spmv.outer.outer_product`; the union
    of the selected columns' active sets is gathered from the CSC matrix
    once, and every column's entry stream is sliced out of that union
    gather (per-column masks) in exactly the order the sequential
    ``gather_columns`` would produce.  The exact heap-merge path (and
    with it trace generation) stays sequential-only.
    """
    if hw_mode not in (HWMode.PC, HWMode.PS, HWMode.SC):
        raise ConfigurationError(f"OP runs under PC, PS or SC, not {hw_mode}")
    columns, currents = _check_batch_args(
        frontiers, matrix.n_cols, semiring, columns, currents
    )

    T, P = geometry.tiles, geometry.pes_per_tile
    if balanced:
        row_counts = np.bincount(matrix.indices, minlength=matrix.n_rows)
        row_ptr = np.zeros(matrix.n_rows + 1, dtype=np.int64)
        np.cumsum(row_counts, out=row_ptr[1:])
        tile_bounds = equal_nnz_row_bounds(row_ptr, T)
    else:
        tile_bounds = equal_rows_bounds(matrix.n_rows, T)

    # Union gather: each matrix column touched by *any* batch column is
    # read once; per-column streams are segment slices of this gather.
    sparse_cols = [frontiers.column_sparse(j) for j in columns]
    if sparse_cols:
        union = np.unique(np.concatenate([sv.indices for sv in sparse_cols]))
    else:
        union = np.zeros(0, dtype=np.int64)
    rows_u, vals_u, col_of_u = matrix.gather_columns(union)
    tile_of_u = np.clip(
        np.searchsorted(tile_bounds, rows_u, side="right") - 1, 0, T - 1
    )
    lens_u = matrix.column_lengths(union) if len(union) else np.zeros(0, dtype=np.int64)
    starts_u = np.zeros(len(union) + 1, dtype=np.int64)
    np.cumsum(lens_u, out=starts_u[1:])

    results: List[SpMVResult] = []
    _san = sanitize.active()
    _perf.kernel_batched_columns += len(columns)
    for sv, current in zip(sparse_cols, currents):
        # Slice this column's entries out of the union gather.  Both the
        # union and the column's index list are sorted, so concatenating
        # the per-column segments in index order reproduces the
        # sequential gather_columns(sv.indices) stream exactly.
        pos_u = np.searchsorted(union, sv.indices)
        lens = lens_u[pos_u]
        total = int(lens.sum())
        if total:
            offsets = np.repeat(starts_u[pos_u], lens)
            within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
            sel = offsets + within
        else:
            sel = np.zeros(0, dtype=np.int64)
        rows_g = rows_u[sel]
        vals_g = vals_u[sel]
        col_of = col_of_u[sel]
        tile_of = tile_of_u[sel]
        pos_of = np.searchsorted(sv.indices, col_of)

        chunks = sv.chunk(P)
        chunk_starts = np.concatenate(
            [[0], np.cumsum([len(c[0]) for c in chunks])]
        ).astype(np.int64)

        if profile_only:
            _perf.kernel_profile_only += 1
            out = None
            touched = None
        else:
            _perf.kernel_executions += 1
            v_src = sv.values[pos_of]
            out = semiring.init_output(matrix.n_rows, current)
            v_dst = None
            if semiring.needs_dst:
                if current is None:
                    raise ShapeError(
                        f"semiring {semiring.name} needs current dst values"
                    )
                v_dst = np.asarray(current, dtype=np.float64)[rows_g]
            contrib = semiring.combine(vals_g, v_src, v_dst, col_of, rows_g)
            semiring.scatter(out, rows_g, contrib)
            touched = np.zeros(matrix.n_rows, dtype=bool)
            touched[rows_g] = True
            prev = (
                np.asarray(current, dtype=np.float64)
                if current is not None
                else semiring.init_output(matrix.n_rows, None)
            )
            out = semiring.apply_vector_op(out, prev)

        elems, heads, pe_out, tile_out, cols_pe = _op_stats(
            matrix, rows_g, col_of, pos_of, tile_of, chunk_starts, chunks, T, P
        )
        _san.check_histogram("outer_product_batch/elements", elems, len(rows_g))
        _san.check_histogram("outer_product_batch/frontier", cols_pe, sv.nnz)
        profile = _build_op_profile(
            matrix,
            sv,
            semiring,
            geometry,
            hw_mode,
            params,
            elems,
            heads,
            pe_out,
            tile_out,
            cols_pe,
            len(rows_g),
        )
        results.append(
            SpMVResult(values=out, touched=touched, profile=profile, semiring=semiring)
        )
    return results
