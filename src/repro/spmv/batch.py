"""Batched (SpMM-style) SpMV kernels over a :class:`MultiVector`.

Multi-source traversals (BFS/SSSP from K roots, batched PageRank
personalisation) issue K independent SpMV invocations per superstep.  The
kernels here run one *batch* of same-config columns against one matrix.
Each places its static schedule once — for IP the partition check,
vblock layout and per-PE entry edges (``_ip_schedule``), for OP the tile
bounds (``_op_schedule``) — and then runs every column through the very
per-column helper its sequential kernel calls
(:func:`~repro.spmv.inner._ip_column`,
:func:`~repro.spmv.outer._op_column`).

Everything a column observes — functional values, touched mask, and the
:class:`~repro.hardware.profile.KernelProfile` the pricing layer consumes
— is therefore **bit-identical** to running the sequential kernel on
that column alone, and hardware pricing stays per-query-faithful.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..formats import COOMatrix, CSCMatrix, MultiVector
from ..hardware import Geometry, HWMode
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..obs.tracer import traced
from ..perf import counters as _perf
from .inner import _ip_column, _ip_schedule
from .outer import _op_column, _op_schedule
from .partition import IPPartition
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
    if frontiers.absent != semiring.absent:
        raise ConfigurationError(
            f"MultiVector absent={frontiers.absent} does not match "
            f"semiring {semiring.name} absent={semiring.absent}"
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
    memo: Optional[dict] = None,
) -> List[SpMVResult]:
    """Batched IP SpMV: one result per selected column, in ``columns`` order.

    Parameters mirror :func:`~repro.spmv.inner.inner_product`, with the
    dense vector replaced by a :class:`MultiVector` (whose ``absent``
    must match the semiring's) plus optional per-column ``currents`` and
    a ``columns`` selection.  ``memo`` follows ``inner_product``'s rule:
    it is used only together with a caller-held ``partition``, and then
    each column takes the same memoised paths a sequential call takes
    (fully active columns, and uniform min-semiring columns counted per
    (row, vblock) cell; docs/model.md §6k, §6l).
    """
    schedule = _ip_schedule(
        matrix, geometry, hw_mode, params, partition, balanced, 1,
        vblock_width, "inner_product_batch",
    )
    columns, currents = _check_batch_args(
        frontiers, matrix.n_cols, semiring, columns, currents
    )
    if partition is None:
        memo = None
    _perf.kernel_batched_columns += len(columns)
    return [
        _ip_column(
            matrix,
            schedule,
            frontiers.column_dense(j),
            semiring,
            current,
            profile_only,
            label=f"inner_product_batch/active[{j}]",
            memo=memo,
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
    partition: Optional[IPPartition] = None,
    balanced: bool = True,
    columns: Optional[Sequence[int]] = None,
    profile_only: bool = False,
) -> List[SpMVResult]:
    """Batched OP SpMV: one result per selected column, in ``columns`` order.

    Parameters mirror :func:`~repro.spmv.outer.outer_product`, with the
    sparse frontier replaced as in :func:`inner_product_batch`.
    """
    schedule = _op_schedule(matrix, geometry, hw_mode, params, partition, balanced)
    columns, currents = _check_batch_args(
        frontiers, matrix.n_cols, semiring, columns, currents
    )
    _perf.kernel_batched_columns += len(columns)
    return [
        _op_column(
            matrix,
            schedule,
            frontiers.column_sparse(j),
            semiring,
            current,
            profile_only,
            label=f"outer_product_batch[{j}]",
        )
        for j, current in zip(columns, currents)
    ]
