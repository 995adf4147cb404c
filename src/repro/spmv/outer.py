"""The outer-product (OP) SpMV kernel.

Section III-A of the paper: the matrix is stored in CSC; the frontier is a
sparse list of (index, value) pairs.  Rows are split across tiles in
equal-nnz partitions (the tile level of the static
:class:`~repro.spmv.partition.IPPartition` the IP kernel uses, when the
caller passes one); within a tile the LCP hands each PE a contiguous
chunk of frontier non-zeros, and the PE merge-sorts the corresponding
matrix columns using a binary min-heap of column heads ("the sorted
list").  Merged elements flow to the LCP, which combines duplicates
across PEs and writes results back to main memory — a *serial* per-tile
stage that is the reason OP scales worse with PEs per tile than IP.

The kernel gathers the touched columns with vectorised numpy and
scatter-reduces; it prices the heap from the per-PE head and element
counts.  The real per-PE heap merge, run element by element, is the
test oracle that validates both (``tests/hardware/trace_oracle.py``).

Both :func:`outer_product` and
:func:`~repro.spmv.batch.outer_product_batch` place the tile bounds once
(``_op_schedule``) and run each frontier column through one helper
(``_op_column``): gather, scatter, work statistics and profile.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from ..analysis import sanitize
from ..errors import ConfigurationError, ShapeError
from ..formats import CSCMatrix, SparseVector
from ..hardware import Geometry, HWMode, KernelProfile, Pattern, Region
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..hardware.spm import heap_spm_access_fraction
from ..obs.tracer import traced
from ..perf import counters as _perf
from .partition import IPPartition, sorted_distinct, split_rows
from .result import SpMVResult
from .semiring import Semiring

__all__ = ["outer_product"]

#: Pipeline slots per merged element beyond heap compares and the combine.
_OPS_PER_ELEMENT = 4
#: Pipeline slots to open one column (indptr lookup, cursor setup).
_OPS_PER_COLUMN = 8
#: Invocation setup: frontier chunking and kernel launch.
_FIXED_OVERHEAD = 200.0
#: Words per heap slot (row index, cursor id).
_HEAP_SLOT_WORDS = 2


@traced("kernel.outer_product", capture=("hw_mode", "profile_only"))
def outer_product(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.PC,
    params: HardwareParams = DEFAULT_PARAMS,
    current: Optional[np.ndarray] = None,
    partition: Optional[IPPartition] = None,
    balanced: bool = True,
    profile_only: bool = False,
) -> SpMVResult:
    """Run one OP SpMV over the frontier's non-zero columns.

    See module docstring; parameters mirror
    :func:`repro.spmv.inner.inner_product` except that the matrix is CSC
    and the frontier sparse.  ``hw_mode`` must be ``PC``, ``PS`` or
    ``SC``.  ``partition`` is the same cached static partition the IP
    kernel takes; OP reads only its tile level.

    ``profile_only=True`` skips the functional scatter and returns a
    result with ``values is None``.
    """
    schedule = _op_schedule(matrix, geometry, hw_mode, params, partition, balanced)
    if not isinstance(frontier, SparseVector):
        raise ShapeError("outer_product expects a SparseVector frontier")
    if frontier.n != matrix.n_cols:
        raise ShapeError(
            f"frontier length {frontier.n} incompatible with matrix {matrix.shape}"
        )
    if semiring.value_words != 1:
        raise ConfigurationError(
            f"the OP kernel handles scalar semirings; {semiring.name} uses "
            "vector values and always runs dense (IP) in the paper"
        )
    return _op_column(
        matrix, schedule, frontier, semiring, current, profile_only,
        "outer_product",
    )


class _OPSchedule(NamedTuple):
    """The frontier-independent half of an OP call, shared by a batch."""

    geometry: Geometry
    hw_mode: HWMode
    params: HardwareParams
    #: Tile ``t`` owns rows ``tile_bounds[t]:tile_bounds[t+1]``.
    tile_bounds: np.ndarray


def _op_schedule(
    matrix: CSCMatrix,
    geometry: Geometry,
    hw_mode: HWMode,
    params: HardwareParams,
    partition: Optional[IPPartition],
    balanced: bool,
) -> _OPSchedule:
    """Validate the hardware context and place the tile bounds.

    Rows are split across tiles in equal-nnz partitions (or equal-rows
    ones, Fig. 7's "w/o partition" ablation).  A partition passed in
    supplies its tile level for free; without one the split costs an
    O(nnz) row count over the CSC.
    """
    if hw_mode not in (HWMode.PC, HWMode.PS, HWMode.SC):
        # The decision tree only ever pairs OP with the private modes,
        # but Fig. 9 also *prices* OP under the shared cache (its "OP /
        # SC" column), so the kernel accepts SC for evaluation.
        raise ConfigurationError(f"OP runs under PC, PS or SC, not {hw_mode}")
    if partition is None:
        tile_bounds = split_rows(matrix.row_extents(), geometry.tiles, balanced)
    else:
        partition.check_fits(matrix.n_rows, geometry)
        tile_bounds = partition.tile_bounds
    return _OPSchedule(geometry, hw_mode, params, tile_bounds)


def _op_column(
    matrix: CSCMatrix,
    schedule: _OPSchedule,
    frontier: SparseVector,
    semiring: Semiring,
    current: Optional[np.ndarray],
    profile_only: bool,
    label: str,
    merge_stats: Optional[dict] = None,
) -> SpMVResult:
    """Run one validated sparse frontier column through ``schedule``.

    The frontier's CSC columns are gathered once; that gather feeds the
    functional scatter and the per-(tile, PE) work statistics the profile
    is built from.  ``merge_stats`` replaces the heap estimate with
    measured per-cell counts (see :func:`_build_op_profile`).
    """
    # Dynamic chunking of frontier non-zeros across PEs (by the LCP).
    chunks = frontier.chunk(schedule.geometry.pes_per_tile)
    rows_g, vals_g, col_of = matrix.gather_columns(frontier.indices)
    pos_of = np.searchsorted(frontier.indices, col_of)
    if profile_only:
        _perf.kernel_profile_only += 1
        out = None
        touched = None
    else:
        _perf.kernel_executions += 1
        out = semiring.init_output(matrix.n_rows, current)
        v_dst = None
        if semiring.needs_dst:
            if current is None:
                raise ShapeError(f"semiring {semiring.name} needs current dst values")
            v_dst = np.asarray(current, dtype=np.float64)[rows_g]
        contrib = semiring.combine(
            vals_g, frontier.values[pos_of], v_dst, col_of, rows_g
        )
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
        matrix, schedule, rows_g, col_of, pos_of, chunks
    )
    geometry = schedule.geometry
    lcp_in = pe_out.reshape(geometry.tiles, geometry.pes_per_tile).sum(axis=1)
    _san = sanitize.active()
    _san.check_histogram(f"{label}/elements", elems, len(rows_g))
    _san.check_histogram(f"{label}/frontier", cols_pe, frontier.nnz)
    _san.check_at_most(f"{label}/heads", heads, elems)
    _san.check_at_most(f"{label}/lcp_inputs", pe_out, elems)
    _san.check_at_most(f"{label}/lcp_outputs", tile_out, lcp_in)
    if touched is not None:
        _san.check_marked(f"{label}/outputs", tile_out, touched)
    profile = _build_op_profile(
        matrix, frontier, semiring, schedule, elems, heads, lcp_in, tile_out,
        cols_pe, len(rows_g), merge_stats,
    )
    return SpMVResult(values=out, touched=touched, profile=profile, semiring=semiring)


def _op_stats(
    matrix: CSCMatrix,
    schedule: _OPSchedule,
    rows_g: np.ndarray,
    col_of: np.ndarray,
    pos_of: np.ndarray,
    chunks,
):
    """Per-(tile, PE) merge workload counts, vectorised over all touched
    entries: entry ``e`` belongs to the tile owning its row and the PE
    whose frontier chunk holds its column.  Each distinct count sorts
    its pair keys, so it needs no ordering of the CSC or the frontier."""
    T, P = schedule.geometry.tiles, schedule.geometry.pes_per_tile
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    tile_of = np.clip(
        np.searchsorted(schedule.tile_bounds, rows_g, side="right") - 1, 0, T - 1
    )
    cols_pe = np.array([len(c[0]) for c in chunks], dtype=np.int64)
    chunk_starts = np.concatenate([[0], np.cumsum(cols_pe)]).astype(np.int64)
    pe_of = np.clip(
        np.searchsorted(chunk_starts, pos_of, side="right") - 1, 0, P - 1
    )
    cell_of = tile_of * P + pe_of
    elems = np.bincount(cell_of, minlength=T * P)
    # Column heads: distinct (cell, column); LCP inputs: distinct (cell,
    # row); LCP outputs: distinct (tile, row).
    heads = np.bincount(
        sorted_distinct(cell_of * n_cols + col_of) // n_cols, minlength=T * P
    )
    pe_out = np.bincount(
        sorted_distinct(cell_of * n_rows + rows_g) // n_rows, minlength=T * P
    )
    tile_out = np.bincount(
        sorted_distinct(tile_of * n_rows + rows_g) // n_rows, minlength=T
    )
    return elems, heads, pe_out, tile_out, cols_pe


def _build_op_profile(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    schedule: _OPSchedule,
    elems: np.ndarray,
    heads: np.ndarray,
    lcp_in: np.ndarray,
    tile_out: np.ndarray,
    cols_pe: np.ndarray,
    touched_entries: int,
    merge_stats: Optional[dict] = None,
) -> KernelProfile:
    """Assemble the OP :class:`KernelProfile` from per-cell counts and
    the per-tile LCP input and output counts.

    Every PE issues five streams: its frontier chunk, the column-pointer
    lookups, the column entries, and the two heap streams of
    :func:`_heap_streams`.  The heap's accesses and compares are
    estimated from each cell's heads and elements, unless
    ``merge_stats`` holds measured ``heap_accesses`` and ``compares``
    arrays, one entry per cell (the exact heap merge of the test oracle
    measures them).
    """
    geometry, hw_mode, params = schedule.geometry, schedule.hw_mode, schedule.params
    T, P = geometry.tiles, geometry.pes_per_tile
    n_el = elems.reshape(T, P)
    n_heads = heads.reshape(T, P)
    n_cols = np.broadcast_to(cols_pe, (T, P))
    heap_words = _HEAP_SLOT_WORDS * np.maximum(n_heads, 1)
    if merge_stats is not None:
        heap_accesses = merge_stats["heap_accesses"].reshape(T, P)
        compares = merge_stats["compares"].reshape(T, P)
    else:
        depth = np.zeros(T * P)
        busy = heads > 0
        depth[busy] = list(map(math.log2, (heads[busy] + 1).tolist()))
        depth = depth.reshape(T, P)
        # replace_top reads the root, writes the new head, and sifts
        # down ~depth levels at ~10 slot-words per level; building the
        # heap costs one push per head.
        heap_accesses = n_el * (4 + 7.5 * depth) + n_heads * (4 + 2.0 * depth)
        compares = n_el * 2.2 * depth + n_heads * depth
    heap_count, heap_footprint, heap_in_spm = _heap_streams(
        heap_accesses,
        heap_words,
        hw_mode.spm_words(geometry, params),
        hw_mode,
        geometry.l1_pe_words(params),
    )
    false = np.zeros((T, P), dtype=bool)
    return KernelProfile(
        algorithm="op",
        mode=hw_mode,
        region=(
            Region.FRONTIER, Region.COLPTR, Region.MATRIX, Region.HEAP,
            Region.HEAP,
        ),
        pattern=(
            Pattern.SEQUENTIAL, Pattern.RANDOM, Pattern.DEPENDENT,
            Pattern.DEPENDENT, Pattern.DEPENDENT,
        ),
        count=np.stack(
            [2 * n_cols, 2 * n_cols, 2 * n_el, *heap_count], axis=-1
        ),
        footprint=np.stack(
            [
                2 * n_cols,
                np.full((T, P), matrix.n_cols + 1),
                2 * n_el,
                *heap_footprint,
            ],
            axis=-1,
        ),
        in_spm=np.stack([false, false, false, heap_in_spm, false], axis=-1),
        compute_ops=(
            n_el * (_OPS_PER_ELEMENT + semiring.combine_flops)
            + compares
            + n_cols * _OPS_PER_COLUMN
        ),
        lcp_serial_elements=lcp_in,
        lcp_output_words=2.0 * tile_out,
        lcp_compute_ops=2.0 * float(cols_pe.sum()) / T,
        fixed_overhead_cycles=_FIXED_OVERHEAD,
        meta={
            "touched_columns": int(frontier.nnz),
            "touched_entries": int(touched_entries),
            "frontier_density": frontier.density,
        },
    )


def _heap_streams(
    heap_accesses: np.ndarray,
    heap_words: np.ndarray,
    spm_words: int,
    hw_mode: HWMode,
    l1_pe_words: int,
):
    """Heap traffic, split by residency of the binary tree's top levels.

    A sift walks the tree root-down, so accesses concentrate on the top
    levels.  Under PS those levels are pinned in the scratchpad; when the
    heap outgrows it, "the tree nature of heap ensures that the majority
    of comparisons and swaps still happen in the SPM" (Section III-A).
    Under PC the same locality means the top levels tend to stay resident
    in the PE's private L1 bank while only the deep levels thrash — but
    PC "has no control over the cache replacement policies", so even the
    hot levels contend with the column stream.  The level-resident
    fraction comes from
    :func:`repro.hardware.spm.heap_spm_access_fraction`.

    Returns, per PE, the resident and spilled streams' counts, their
    footprints, and whether the resident one sits in SPM.  A heap that
    fits leaves the spilled stream at zero count; under PS a heap with
    no level in SPM leaves the resident one empty and out of SPM.
    """
    in_spm = hw_mode is HWMode.PS and spm_words > 0
    # PC: split hot (top-level, bank-sized) and cold (deep-level) shares.
    resident_words = spm_words if in_spm else l1_pe_words
    f = heap_spm_access_fraction(heap_words, resident_words)
    return (
        (heap_accesses * f, heap_accesses * (1 - f)),
        (
            np.minimum(heap_words, resident_words),
            np.maximum(heap_words - resident_words, 0),
        ),
        (f > 0) if in_spm else np.zeros(f.shape, dtype=bool),
    )

