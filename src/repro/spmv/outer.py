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

Two functional paths produce identical results:

* the **fast path** (default) gathers the touched columns with vectorised
  numpy and scatter-reduces — used for large inputs;
* the **exact path** (``exact=True`` or ``with_trace=True``) runs the
  real per-PE heap merge element by element, which doubles as the
  address-trace generator for the PC/PS hardware comparison.

Both :func:`outer_product` and
:func:`~repro.spmv.batch.outer_product_batch` place the tile bounds once
(``_op_schedule``) and run each frontier column through one helper
(``_op_column``): gather, scatter, work statistics and profile.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional

import numpy as np

from ..analysis import sanitize
from ..errors import ConfigurationError, ShapeError, SimulationError
from ..formats import CSCMatrix, SparseVector
from ..hardware import (
    Geometry,
    HWMode,
    KernelProfile,
    PETrace,
    Pattern,
    Region,
)
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..hardware.spm import Scratchpad
from ..obs.tracer import traced
from ..perf import counters as _perf
from .heap import MergeHeap
from .partition import IPPartition, split_rows
from .result import SpMVResult
from .semiring import Semiring

__all__ = ["outer_product"]

#: Pipeline slots per merged element beyond heap compares and the combine.
_OPS_PER_ELEMENT = 4
#: Pipeline slots to open one column (indptr lookup, cursor setup).
_OPS_PER_COLUMN = 8
#: Invocation setup: frontier chunking and kernel launch.
_FIXED_OVERHEAD = 200.0
#: Words per heap slot (row index, cursor id) — matches MergeHeap.
_HEAP_SLOT_WORDS = 2
#: Address stride separating different PEs' private heaps (words).
_HEAP_PE_STRIDE = 1 << 22


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
    exact: bool = False,
    with_trace: bool = False,
    balanced: bool = True,
    profile_only: bool = False,
) -> SpMVResult:
    """Run one OP SpMV over the frontier's non-zero columns.

    See module docstring; parameters mirror
    :func:`repro.spmv.inner.inner_product` except that the matrix is CSC
    and the frontier sparse.  ``hw_mode`` must be ``PC``, ``PS`` or
    ``SC``.  ``partition`` is the same cached static partition the IP
    kernel takes; OP reads only its tile level.

    ``profile_only=True`` skips the functional scatter/merge and returns
    a result with ``values is None`` — unless the exact path is forced
    (``exact``/``with_trace``), whose element-by-element merge *is* the
    trace generator; its functional output then comes along for free and
    the result reports ``executed``.
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
        exact or with_trace, with_trace, "outer_product",
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
        row_ptr = np.zeros(matrix.n_rows + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(matrix.indices, minlength=matrix.n_rows), out=row_ptr[1:]
        )
        tile_bounds = split_rows(row_ptr, geometry.tiles, balanced)
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
    exact: bool,
    with_trace: bool,
    label: str,
) -> SpMVResult:
    """Run one validated sparse frontier column through ``schedule``.

    The frontier's CSC columns are gathered once; that gather feeds the
    functional scatter (or the exact heap merge, cross-checked against
    it) and the per-(tile, PE) work statistics the profile is built from.
    """
    # Dynamic chunking of frontier non-zeros across PEs (by the LCP).
    chunks = frontier.chunk(schedule.geometry.pes_per_tile)
    rows_g, vals_g, col_of = matrix.gather_columns(frontier.indices)
    pos_of = np.searchsorted(frontier.indices, col_of)
    traces, merge_stats = None, None
    if profile_only and not exact:
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
        if exact:
            exact_out, traces, merge_stats = _exact_merge(
                matrix, frontier, semiring, chunks, schedule, current, with_trace
            )
            if not np.allclose(exact_out, out, equal_nan=True):
                # A real error, not an `assert`: the cross-check must
                # survive `python -O` (assert statements are stripped).
                raise SimulationError(
                    "exact heap merge disagrees with the vectorised OP path"
                )
            out = exact_out
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
    _san = sanitize.active()
    _san.check_histogram(f"{label}/elements", elems, len(rows_g))
    _san.check_histogram(f"{label}/frontier", cols_pe, frontier.nnz)
    profile = _build_op_profile(
        matrix, frontier, semiring, schedule, elems, heads, pe_out, tile_out,
        cols_pe, len(rows_g), merge_stats, traces, exact,
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
    whose frontier chunk holds its column."""
    T, P = schedule.geometry.tiles, schedule.geometry.pes_per_tile
    tile_of = np.clip(
        np.searchsorted(schedule.tile_bounds, rows_g, side="right") - 1, 0, T - 1
    )
    cols_pe = np.array([len(c[0]) for c in chunks], dtype=np.int64)
    chunk_starts = np.concatenate([[0], np.cumsum(cols_pe)]).astype(np.int64)
    pe_of = np.clip(
        np.searchsorted(chunk_starts, pos_of, side="right") - 1, 0, P - 1
    )
    cell_of = tile_of * P + pe_of
    elems = np.bincount(cell_of, minlength=T * P).astype(np.int64)
    # Non-empty columns per (tile, pe): distinct (cell, column) pairs.
    cell_col = cell_of * matrix.n_cols + col_of
    uniq_cc = np.unique(cell_col)
    heads = np.bincount(
        (uniq_cc // matrix.n_cols).astype(np.int64), minlength=T * P
    ).astype(np.int64)
    # LCP inputs: distinct (cell, row); LCP outputs: distinct (tile, row).
    cell_row = cell_of * matrix.n_rows + rows_g
    uniq_cr = np.unique(cell_row)
    pe_out = np.bincount(
        (uniq_cr // matrix.n_rows).astype(np.int64), minlength=T * P
    ).astype(np.int64)
    tile_row = tile_of * matrix.n_rows + rows_g
    tile_out = np.bincount(
        (np.unique(tile_row) // matrix.n_rows).astype(np.int64), minlength=T
    ).astype(np.int64)
    return elems, heads, pe_out, tile_out, cols_pe


def _build_op_profile(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    schedule: _OPSchedule,
    elems: np.ndarray,
    heads: np.ndarray,
    pe_out: np.ndarray,
    tile_out: np.ndarray,
    cols_pe: np.ndarray,
    touched_entries: int,
    merge_stats=None,
    traces=None,
    exact: bool = False,
) -> KernelProfile:
    """Assemble the OP :class:`KernelProfile` from per-cell counts.

    Every PE issues five streams: its frontier chunk, the column-pointer
    lookups, the column entries, and the two heap streams of
    :func:`_heap_streams`.
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
        lcp_serial_elements=pe_out.reshape(T, P).sum(axis=1),
        lcp_output_words=2.0 * tile_out,
        lcp_compute_ops=2.0 * float(cols_pe.sum()) / T,
        fixed_overhead_cycles=_FIXED_OVERHEAD,
        meta={
            "touched_columns": int(frontier.nnz),
            "touched_entries": int(touched_entries),
            "frontier_density": frontier.density,
            "exact": bool(exact),
        },
        traces=traces,
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
    :meth:`repro.hardware.spm.Scratchpad.heap_spm_access_fraction`.

    Returns, per PE, the resident and spilled streams' counts, their
    footprints, and whether the resident one sits in SPM.  A heap that
    fits leaves the spilled stream at zero count; under PS a heap with
    no level in SPM leaves the resident one empty and out of SPM.
    """
    in_spm = hw_mode is HWMode.PS and spm_words > 0
    # PC: split hot (top-level, bank-sized) and cold (deep-level) shares.
    resident_words = spm_words if in_spm else l1_pe_words
    f = Scratchpad.heap_spm_access_fraction(heap_words, resident_words)
    return (
        (heap_accesses * f, heap_accesses * (1 - f)),
        (
            np.minimum(heap_words, resident_words),
            np.maximum(heap_words - resident_words, 0),
        ),
        (f > 0) if in_spm else np.zeros(f.shape, dtype=bool),
    )


def _exact_merge(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    chunks,
    schedule: _OPSchedule,
    current: Optional[np.ndarray],
    with_trace: bool,
):
    """Element-by-element heap merge, per (tile, PE) — the real schedule.

    Returns the reduced output array, optional per-PE traces, and
    measured heap statistics keyed by PE cell index.
    """
    T, P = schedule.geometry.tiles, schedule.geometry.pes_per_tile
    tile_bounds = schedule.tile_bounds
    out = semiring.init_output(matrix.n_rows, current)
    cur = np.asarray(current, dtype=np.float64) if current is not None else None
    traces: List[Optional[PETrace]] = [None] * (T * P)
    heap_acc = np.zeros(T * P)
    compares = np.zeros(T * P)

    for t in range(T):
        lo, hi = int(tile_bounds[t]), int(tile_bounds[t + 1])
        for p, (cidx, cval) in enumerate(chunks):
            k = t * P + p
            sink: Optional[list] = [] if with_trace else None
            heap = MergeHeap(
                sink=(lambda off, wr: sink.append((int(Region.HEAP), off, wr)))
                if with_trace
                else None
            )
            cursors = []  # [next_pos, end_pos, v_src]
            for ci, (j, vj) in enumerate(zip(cidx.tolist(), cval.tolist())):
                if with_trace:
                    base = 2 * (int(np.searchsorted(frontier.indices, j)))
                    sink.append((int(Region.FRONTIER), base, False))
                    sink.append((int(Region.FRONTIER), base + 1, False))
                    sink.append((int(Region.COLPTR), j, False))
                    sink.append((int(Region.COLPTR), j + 1, False))
                c0, c1 = int(matrix.indptr[j]), int(matrix.indptr[j + 1])
                # restrict to this tile's row slice
                s = c0 + int(np.searchsorted(matrix.indices[c0:c1], lo))
                e = c0 + int(np.searchsorted(matrix.indices[c0:c1], hi))
                if s >= e:
                    continue
                if with_trace:
                    sink.append((int(Region.MATRIX), 2 * s, False))
                    sink.append((int(Region.MATRIX), 2 * s + 1, False))
                cursors.append([s + 1, e, vj, j])
                heap.push(int(matrix.indices[s]), len(cursors) - 1)

            # merge loop: pop smallest, emit, advance its column cursor
            last_row, acc = -1, 0.0
            merged = []  # (row, reduced value) in sorted order
            while len(heap):
                row, cid = heap.peek()
                pos, end, vj, j = cursors[cid]
                a = float(matrix.vals[pos - 1])
                dst_val = (
                    np.array([cur[row]]) if semiring.needs_dst else None
                )
                c = float(
                    semiring.combine(
                        np.array([a]),
                        np.array([vj]),
                        dst_val,
                        np.array([j]),
                        np.array([row]),
                    )[0]
                )
                if row == last_row:
                    acc = float(semiring.reduce_op(acc, c))
                else:
                    if last_row >= 0:
                        merged.append((last_row, acc))
                    last_row, acc = row, c
                if pos < end:
                    if with_trace:
                        sink.append((int(Region.MATRIX), 2 * pos, False))
                        sink.append((int(Region.MATRIX), 2 * pos + 1, False))
                    cursors[cid][0] = pos + 1
                    heap.replace_top(int(matrix.indices[pos]), cid)
                else:
                    heap.pop()
            if last_row >= 0:
                merged.append((last_row, acc))

            # LCP stage: reduce this PE's sorted stream into the output.
            for row, val in merged:
                out[row] = semiring.reduce_op(out[row], val)
            heap_acc[k] = heap.accesses
            compares[k] = heap.compares
            if with_trace:
                if sink:
                    regs, offs, wrs = zip(*sink)
                    regs = np.asarray(regs, dtype=np.int8)
                    offs = np.asarray(offs, dtype=np.int64)
                    wrs = np.asarray(wrs, dtype=bool)
                    # relocate the PE-private heap out of other PEs' way
                    heap_sel = regs == int(Region.HEAP)
                    offs = offs.copy()
                    offs[heap_sel] += k * _HEAP_PE_STRIDE
                else:
                    regs = np.zeros(0, dtype=np.int8)
                    offs = np.zeros(0, dtype=np.int64)
                    wrs = np.zeros(0, dtype=bool)
                traces[k] = PETrace(regs, offs, wrs)

    stats = {"heap_accesses": heap_acc, "compares": compares}
    return out, (traces if with_trace else None), stats
