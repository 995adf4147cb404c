"""The inner-product (IP) SpMV kernel.

Section III-A/III-B of the paper: the matrix is streamed in row-major COO
order, split into equal-nnz row partitions (one per PE) and vertical
blocks (vblocks) sized to the scratchpad; the dense frontier is gathered
randomly per non-zero.  Under ``SCS`` the current vblock's vector segment
is pinned in the tile's shared SPM; under ``SC`` it is fetched through the
shared L1 caches.  Each tile owns disjoint output rows, so no
synchronisation is needed.

The function below produces (a) the exact functional result of the
semiring SpMV, computed with vectorised numpy over the very same
partition structure, and (b) the per-PE hardware profile.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..analysis import sanitize
from ..errors import ConfigurationError, ShapeError
from ..formats import COOMatrix, DenseVector
from ..hardware import Geometry, HWMode, KernelProfile, Pattern, Region
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..obs.tracer import traced
from ..perf import counters as _perf
from .partition import (
    IPPartition,
    build_ip_partitions,
    run_starts,
    sorted_distinct,
    vblock_width,
)
from .result import SpMVResult
from .semiring import Semiring

__all__ = ["inner_product"]

#: In-order pipeline slots per streamed COO entry (loop control, three
#: loads issued, activity test) beyond the semiring's own flops.
_OPS_PER_ENTRY = 6
#: Invocation setup: partition table lookup and kernel launch.
_FIXED_OVERHEAD = 150.0
#: Per-vblock tile synchronisation cycles.
_VBLOCK_SYNC = 12.0


@traced("kernel.inner_product", capture=("hw_mode", "profile_only"))
def inner_product(
    matrix: COOMatrix,
    vector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.SC,
    params: HardwareParams = DEFAULT_PARAMS,
    current: Optional[np.ndarray] = None,
    partition: Optional[IPPartition] = None,
    balanced: bool = True,
    profile_only: bool = False,
    vblock_width: Optional[int] = None,
    memo: Optional[dict] = None,
) -> SpMVResult:
    """Run one IP SpMV: ``out = reduce(combine(A[i,j], v[j]))`` over rows.

    Parameters
    ----------
    matrix:
        Adjacency matrix in row-major COO (already transposed if the
        caller wants ``SpMV(G.T, f)`` semantics).
    vector:
        Dense frontier — a numpy array, a
        :class:`~repro.formats.dense.DenseVector`, or a 2-D ``(n, K)``
        array for vector-valued semirings (CF).  Inactive entries hold
        ``semiring.absent``.
    semiring:
        The Matrix_Op/Vector_Op pair to execute.
    geometry, hw_mode, params:
        Hardware context; ``hw_mode`` must be ``SC`` or ``SCS``.
    current:
        Current vertex values (required for carry/``needs_dst``
        semirings and as Vector_Op's second operand).
    partition:
        Pre-built static partition (reused across iterations, as the
        paper's preprocessing does); built on the fly when omitted.
    balanced:
        Equal-nnz partitioning (True) or the naive equal-rows baseline
        (False) — the Fig. 7 ablation.
    profile_only:
        Build only the hardware profile (its counts and streams are
        structural) and skip the functional semiring computation; the
        returned result has ``values is None``.  Used by the runtime's
        pricing probes.
    vblock_width:
        Override the SPM-derived vertical-block width (a tuning plan's
        blocking choice).  Clamped to the SPM-fit width so SCS pinning
        stays feasible; affects only the modelled profile, never the
        functional values.
    memo:
        The matrix's IP memo (``SpMVOperand.ip_memo``), used together
        with a caller-held ``partition``.  A frontier with no
        ``absent`` entry then reuses the per-PE counts, ``touched``
        mask and frozen profile built on the first such call
        (docs/model.md §6k).  A min semiring's frontier whose live
        sources hold one ``prescale`` value (BFS's level sets) takes
        its accounting and values from one count of active entries per
        (row, vblock) cell, over a cell pattern kept in the memo (§6l);
        profile-only calls do not.  Without a memo or without a
        partition every call gathers, compacts and scatters.
    """
    vw = semiring.value_words
    schedule = _ip_schedule(
        matrix, geometry, hw_mode, params, partition, balanced, vw,
        vblock_width, "inner_product",
    )
    if isinstance(vector, DenseVector):
        vector = vector.data
    v = np.asarray(vector, dtype=np.float64)
    if v.shape[0] != matrix.n_cols:
        raise ShapeError(
            f"vector length {v.shape[0]} incompatible with matrix {matrix.shape}"
        )
    if (vw == 1) != (v.ndim == 1):
        raise ShapeError(
            f"semiring {semiring.name} expects value_words={vw}, "
            f"got vector of shape {v.shape}"
        )
    if partition is None:
        # A partition built per call would key a new entry on every call.
        memo = None
    return _ip_column(
        matrix, schedule, v, semiring, current, profile_only,
        "inner_product/active", memo,
    )


class _IPSchedule(NamedTuple):
    """The frontier-independent half of an IP call, shared by a batch."""

    geometry: Geometry
    hw_mode: HWMode
    partition: IPPartition
    balanced: bool
    width: int
    n_vblocks: int
    #: PE ``k`` owns rows ``pe_rows[k]:pe_rows[k+1]`` ...
    pe_rows: np.ndarray
    #: ... which are entries ``pe_entries[k]:pe_entries[k+1]`` of the
    #: row-sorted COO arrays.
    pe_entries: np.ndarray


def _ip_schedule(
    matrix: COOMatrix,
    geometry: Geometry,
    hw_mode: HWMode,
    params: HardwareParams,
    partition: Optional[IPPartition],
    balanced: bool,
    vw: int,
    vblock_width: Optional[int],
    label: str,
) -> _IPSchedule:
    """Validate the hardware context and place the static schedule.

    With a partition passed in this costs O(P log nnz): the COO is
    row-sorted, so each PE's entries are one contiguous run whose ends
    a binary search finds.
    """
    if hw_mode not in (HWMode.SC, HWMode.SCS):
        raise ConfigurationError(f"IP runs under SC or SCS, not {hw_mode}")
    if partition is None:
        partition = build_ip_partitions(
            matrix.row_extents(),
            geometry.tiles,
            geometry.pes_per_tile,
            balanced=balanced,
        )
    else:
        partition.check_fits(matrix.n_rows, geometry)
    width, n_vblocks = _ip_layout(
        matrix.n_cols, geometry, params, vw, override=vblock_width
    )
    pe_rows = np.concatenate(
        [b[:-1] for b in partition.pe_bounds] + [[matrix.n_rows]]
    ).astype(np.int64)
    pe_entries = np.searchsorted(matrix.rows, pe_rows)
    sanitize.active().check_histogram(
        f"{label}/nnz", np.diff(pe_entries), matrix.nnz
    )
    return _IPSchedule(
        geometry, hw_mode, partition, balanced, width, n_vblocks, pe_rows,
        pe_entries,
    )


def _ip_column(
    matrix: COOMatrix,
    schedule: _IPSchedule,
    v: np.ndarray,
    semiring: Semiring,
    current: Optional[np.ndarray],
    profile_only: bool,
    label: str,
    memo: Optional[dict] = None,
) -> SpMVResult:
    """Run one validated dense frontier column through ``schedule``.

    The functional result is vectorised over the active entries; it is
    identical to the per-PE schedule because row partitions are disjoint
    and the reduce is commutative.  A partially active frontier is
    compacted by one index of its active entries, which every array
    takes; a fully active one streams the stored arrays and builds no
    index.  The activity test compares the frontier once (O(n)) and
    reads that mask at every entry; beyond it, the accounting costs
    O(active entries) plus O(P log nnz).  Given a ``memo``, a frontier
    with no ``absent`` entry skips the per-entry read and the
    accounting: :func:`_full_column` holds both.  Its values, for an add
    semiring with a ``prescale``, are one compiled CSR matvec
    (:func:`_ones_pattern`).  Given a ``memo``, a min semiring's column
    whose live sources share one ``prescale`` value (:func:`_uniform`)
    builds no index either: one count per (row, vblock) cell
    (:func:`_counted_column`) gives its accounting and the rows its
    value fills (docs/model.md §6l).
    """
    rows, cols, vals = matrix.to_arrays()
    live = v != semiring.absent if v.ndim == 1 else None
    full = fill = None
    if memo is not None:
        if live is None or live.all():
            full = _full_column(matrix, schedule, semiring, memo, label)
        if not profile_only and semiring.reduce_op is np.minimum:
            fill = _uniform(semiring, v, live)
    if fill is not None and full is None:
        return _counted_column(
            matrix, schedule, semiring, current, live, fill, memo, label
        )
    active = live[cols] if live is not None and full is None else None
    n_active = matrix.nnz if active is None else int(np.count_nonzero(active))
    idx = np.flatnonzero(active) if n_active < matrix.nnz else None
    a_rows = rows if idx is None else rows.take(idx)
    a_cols = cols if idx is None else cols.take(idx)
    if profile_only:
        _perf.kernel_profile_only += 1
        out = None
        touched = None
    else:
        _perf.kernel_executions += 1
        v_dst = None
        if semiring.needs_dst:
            if current is None:
                raise ShapeError(f"semiring {semiring.name} needs current dst values")
            v_dst = np.asarray(current, dtype=np.float64)[a_rows]
        if fill is not None:
            out = _filled(semiring, matrix.n_rows, current, full.touched, fill)
        elif (
            full is not None
            and semiring.prescale is not None
            and semiring.reduce_op is np.add
        ):
            out = _ones_pattern(matrix, memo) @ semiring.prescale(v)
        else:
            a_vals = vals if idx is None else vals.take(idx)
            out = semiring.init_output(matrix.n_rows, current)
            contrib = semiring.combine(a_vals, v[a_cols], v_dst, a_cols, a_rows)
            semiring.scatter(out, a_rows, contrib)
        if full is not None:
            touched = full.touched
        else:
            touched = np.zeros(matrix.n_rows, dtype=bool)
            touched[a_rows] = True
        out = _vector_op(semiring, out, current)
    if full is not None:
        return SpMVResult(
            values=out, touched=touched, profile=full.profile, semiring=semiring
        )

    active_edges = np.searchsorted(a_rows, schedule.pe_rows)
    act_pe = np.diff(active_edges)
    out_pe = _ip_first_touches(a_rows, a_cols, active_edges, schedule)
    profile = _checked_profile(
        matrix, semiring, schedule, act_pe, out_pe, n_active, label
    )
    return SpMVResult(values=out, touched=touched, profile=profile, semiring=semiring)


def _vector_op(
    semiring: Semiring, out: np.ndarray, current: Optional[np.ndarray]
) -> np.ndarray:
    """Vector_Op over a column's reduced output, against ``current``."""
    prev = (
        np.asarray(current, dtype=np.float64)
        if current is not None
        else semiring.init_output(len(out), None)
    )
    return semiring.apply_vector_op(out, prev)


def _checked_profile(
    matrix: COOMatrix,
    semiring: Semiring,
    schedule: _IPSchedule,
    act_pe: np.ndarray,
    out_pe: np.ndarray,
    n_active: int,
    label: str,
) -> KernelProfile:
    """Sanitize a column's per-PE counts, then build its profile."""
    _san = sanitize.active()
    _san.check_histogram(label, act_pe, n_active)
    _san.check_at_most(f"{label}/first_touches", out_pe, act_pe)
    return _build_ip_profile(
        matrix, semiring, schedule, act_pe, out_pe, n_active
    )


def _uniform(
    semiring: Semiring, v: np.ndarray, live: np.ndarray
) -> Optional[np.ndarray]:
    """The one ``prescale`` value every live source holds, if there is one.

    Returns it as a one-element array (its bits exactly), or None when
    the semiring has no ``prescale``, no source is live, or two live
    sources differ in any bit: ``-0.0`` beside ``+0.0``, or two NaN
    payloads, are not uniform.
    """
    if semiring.prescale is None:
        return None
    bits = semiring.prescale(v).view(np.int64)[live]
    if bits.size == 0 or np.any(bits != bits[0]):
        return None
    return bits[:1].view(np.float64)


def _filled(
    semiring: Semiring,
    n_rows: int,
    current: Optional[np.ndarray],
    touched: np.ndarray,
    fill: np.ndarray,
) -> np.ndarray:
    """A uniform min column's reduced output: ``fill`` where touched.

    ``np.minimum.at`` folding copies of one value ``c`` into the +inf
    identity leaves exactly ``c`` (its bits, NaN payloads and the sign
    of zero included) at every row it reaches, and +inf elsewhere.
    """
    out = semiring.init_output(n_rows, current)
    out[touched] = fill
    return out


def _counted_column(
    matrix: COOMatrix,
    schedule: _IPSchedule,
    semiring: Semiring,
    current: Optional[np.ndarray],
    live: np.ndarray,
    fill: np.ndarray,
    memo: dict,
    label: str,
) -> SpMVResult:
    """A uniform min column from one count of active entries per cell.

    Cell ``row * n_vblocks + col // width`` counts the column's active
    entries in one row and vblock: ``cells @ live`` is one compiled CSR
    pass (:func:`_cell_pattern`).  A PE's active entries are the sum of
    its cells, its first touches the number of non-empty ones (the
    distinct (row, vblock) pairs of :func:`_ip_first_touches`) and the
    rows it touches those with a non-empty cell.  The counts are
    integer sums below 2**53, so every figure is exact and the profile
    equals the compacted path's.
    """
    _perf.kernel_executions += 1
    _perf.kernel_counted_columns += 1
    if semiring.needs_dst and current is None:
        raise ShapeError(f"semiring {semiring.name} needs current dst values")
    counts = _cell_pattern(matrix, schedule, memo) @ live.astype(np.float64)
    counts = counts.reshape(matrix.n_rows, schedule.n_vblocks)
    # Row sums as a matrix-vector product: numpy's reductions along a
    # short inner axis cost more than the count itself.
    ones = np.ones(schedule.n_vblocks)
    row_entries = counts @ ones
    act_pe = _pe_sums(row_entries, schedule.pe_rows)
    out_pe = _pe_sums((counts > 0) @ ones, schedule.pe_rows)
    touched = row_entries > 0
    out = _filled(semiring, matrix.n_rows, current, touched, fill)
    profile = _checked_profile(
        matrix, semiring, schedule, act_pe, out_pe, int(row_entries.sum()),
        label,
    )
    return SpMVResult(
        values=_vector_op(semiring, out, current),
        touched=touched,
        profile=profile,
        semiring=semiring,
    )


class _FullColumn(NamedTuple):
    """The frontier-independent half of a fully active IP column.

    Every entry is active, so the per-PE active and first-touch counts,
    the rows touched and the profile depend only on the operand and the
    schedule.  All arrays are read-only: each call shares them.
    """

    #: The schedule's partition, pinning the ``id`` in the memo key.
    partition: IPPartition
    act_pe: np.ndarray
    out_pe: np.ndarray
    #: Rows with at least one entry.
    touched: np.ndarray
    profile: KernelProfile


def _full_column(
    matrix: COOMatrix,
    schedule: _IPSchedule,
    semiring: Semiring,
    memo: dict,
    label: str,
) -> _FullColumn:
    """Look up, or build once, the fully active accounting in ``memo``.

    The key covers everything :func:`_build_ip_profile` reads beyond
    the operand: the partition (by identity: the operand caches it),
    the HW mode, the vblock width, the balance flag, ``value_words``
    and ``combine_flops``.  The entry is what :func:`_ip_column`
    computes when every entry is active, so results are bit-identical.
    The sanitizer checks the entry when it is built and, when active,
    re-checks its per-PE arrays (O(P)) on every hit.
    """
    key = (
        id(schedule.partition), schedule.hw_mode, schedule.width,
        schedule.balanced, semiring.value_words, semiring.combine_flops,
    )
    entry = memo.get(key)
    if entry is None or entry.partition is not schedule.partition:
        rows, cols = matrix.rows, matrix.cols
        act_pe = np.diff(schedule.pe_entries)
        out_pe = _ip_first_touches(rows, cols, schedule.pe_entries, schedule)
        touched = np.zeros(matrix.n_rows, dtype=bool)
        touched[rows] = True
        profile = _build_ip_profile(
            matrix, semiring, schedule, act_pe, out_pe, matrix.nnz
        ).freeze()
        for arr in (act_pe, out_pe, touched):
            arr.flags.writeable = False
        entry = memo[key] = _FullColumn(
            schedule.partition, act_pe, out_pe, touched, profile
        )
    san = sanitize.active()
    san.check_histogram(label, entry.act_pe, matrix.nnz)
    san.check_at_most(f"{label}/first_touches", entry.out_pe, entry.act_pe)
    return entry


#: The ``ip_memo`` key of the operand's pattern of ones (one per operand,
#: whatever the schedule).
_PATTERN = ("pattern",)


def _ones_pattern(matrix: COOMatrix, memo: dict):
    """The operand's stored coordinates as a read-only CSR array of ones.

    ``pattern @ prescale(v)`` is a fully active prescale column's output
    bit for bit: scipy's ``csr_matvec`` folds each row from +0.0 in
    stored order, the order ``np.add.at`` folds the row-sorted COO in,
    and a product with exactly 1.0 is exact, fused into a multiply-add
    or not.  The :class:`Semiring` contract rules out every semiring
    this does not hold for.  Built on the first such call and kept in
    ``memo`` (12 bytes per stored entry with int32 indices);
    ``scipy.sparse`` is imported here, so ``import repro`` loads no
    scipy.
    """
    pattern = memo.get(_PATTERN)
    if pattern is None:
        import scipy.sparse as sp

        fits = max(matrix.n_cols, matrix.nnz) <= np.iinfo(np.int32).max
        index = np.int32 if fits else np.int64
        arrays = (
            np.ones(matrix.nnz),
            matrix.cols.astype(index),
            matrix.row_extents().astype(index),
        )
        for arr in arrays:
            arr.flags.writeable = False
        pattern = memo[_PATTERN] = sp.csr_array(arrays, shape=matrix.shape)
    return pattern


def _pe_sums(per_row: np.ndarray, pe_rows: np.ndarray) -> np.ndarray:
    """Each PE's sum of an integer-valued per-row count, as int64."""
    prefix = np.concatenate(([0.0], np.cumsum(per_row)))
    return np.diff(prefix[pe_rows].astype(np.int64))


def _cell_pattern(matrix: COOMatrix, schedule: _IPSchedule, memo: dict):
    """The operand's entries grouped by (row, vblock) cell, read-only.

    Row ``row * n_vblocks + col // width`` of this CSR array holds the
    entries of that cell, so ``cells @ live`` counts each cell's active
    entries in one compiled pass.  It shares the data and column
    indices of :func:`_ones_pattern` and has its own row pointers (4
    bytes per cell with int32 indices); with one vblock it is the ones
    pattern.  On the row-sorted COO the cell key never decreases.  A
    tuned operand keeps its within-row entry order, whose columns can
    step back: its cells get their own cell-ordered copy of the
    indices, since a count does not depend on order.  Built on the
    first counted column of a layout and kept in ``memo`` under
    ``("cells", n_vblocks, width)``.
    """
    ones = _ones_pattern(matrix, memo)
    n_vblocks, width = schedule.n_vblocks, schedule.width
    if n_vblocks == 1:
        return ones
    key = ("cells", n_vblocks, width)
    cells = memo.get(key)
    if cells is None:
        import scipy.sparse as sp

        n_cells = matrix.n_rows * n_vblocks
        keys = matrix.rows * np.int64(n_vblocks) + matrix.cols // width
        indices = ones.indices
        if np.any(keys[1:] < keys[:-1]):
            indices = indices.take(np.argsort(keys, kind="stable"))
            indices.flags.writeable = False
        indptr = np.zeros(n_cells + 1, dtype=ones.indptr.dtype)
        np.cumsum(np.bincount(keys, minlength=n_cells), out=indptr[1:])
        indptr.flags.writeable = False
        cells = memo[key] = sp.csr_array(
            (ones.data, indices, indptr), shape=(n_cells, matrix.n_cols)
        )
    return cells


def _ip_first_touches(
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    active_edges: np.ndarray,
    schedule: _IPSchedule,
) -> np.ndarray:
    """Per-PE distinct (row, vblock) pairs among the active entries.

    The row-major stream accumulates consecutive same-row contributions
    in registers, so only distinct (row, vblock) pairs are exposed to
    the memory system as output first-touches.  The COO is sorted by
    (row, col), so the pair keys are non-decreasing: each pair starts
    where the key changes, and a binary search of those starts at each
    PE's active-entry edges counts them.  A tuned operand keeps its
    original within-row entry order, whose keys can step back; those
    are sorted first (:func:`~repro.spmv.partition.sorted_distinct`).
    """
    n_vblocks = schedule.n_vblocks
    keys = (
        a_rows
        if n_vblocks == 1
        else a_rows * np.int64(n_vblocks) + a_cols // schedule.width
    )
    if np.any(keys[1:] < keys[:-1]):
        distinct_rows = sorted_distinct(keys) // n_vblocks
        return np.diff(np.searchsorted(distinct_rows, schedule.pe_rows))
    starts = np.flatnonzero(run_starts(keys))
    return np.diff(np.searchsorted(starts, active_edges))


def _ip_layout(
    n_cols: int,
    geometry: Geometry,
    params: HardwareParams,
    vw: int,
    override: Optional[int] = None,
):
    """Vertical-blocking layout shared by the single and batched kernels.

    Both modes use the SPM-sized vertical blocking: "the vertical
    partition is not required for the SC mode but can still be
    beneficial because of the improved spatial and temporal locality of
    vector accesses" (Section III-B).  Keeping the width identical
    isolates the SCS-vs-SC contrast to where the vector segment lives:
    pinned in the scratchpad, or exposed to eviction in the shared L1.

    ``override`` narrows the width below the SPM-fit maximum (a tuning
    plan trading more per-vblock synchronisation for tighter vector
    locality); it can never widen past what the scratchpad holds.
    """
    width = vblock_width(HWMode.SCS.spm_words(geometry, params), vw)
    if override is not None:
        if override <= 0:
            raise ConfigurationError(
                f"vblock width override must be positive, got {override}"
            )
        width = min(width, int(override))
    n_vblocks = max(1, -(-n_cols // width))
    return width, n_vblocks


def _build_ip_profile(
    matrix: COOMatrix,
    semiring: Semiring,
    schedule: _IPSchedule,
    act_pe: np.ndarray,
    out_pe: np.ndarray,
    active_entries: int,
) -> KernelProfile:
    """Assemble the IP :class:`KernelProfile` from per-PE counts.

    Every PE issues three streams: the matrix, the vector gathers and
    the output read-modify-writes.
    """
    geometry, hw_mode = schedule.geometry, schedule.hw_mode
    width, n_vblocks = schedule.width, schedule.n_vblocks
    vw = semiring.value_words
    shape = (geometry.tiles, geometry.pes_per_tile)
    nnz = np.diff(schedule.pe_entries).reshape(shape)
    act = act_pe.reshape(shape)
    rows = np.maximum(np.diff(schedule.partition.pe_bounds, axis=1), 1)
    return KernelProfile(
        algorithm="ip",
        mode=hw_mode,
        region=(Region.MATRIX, Region.VECTOR_IN, Region.VECTOR_OUT),
        pattern=(Pattern.SEQUENTIAL, Pattern.RANDOM, Pattern.RANDOM),
        count=np.stack([3 * nnz, nnz * vw, 2 * act * vw], axis=-1),
        footprint=np.stack(
            [3 * nnz, np.full(shape, min(width, matrix.n_cols) * vw), rows * vw],
            axis=-1,
        ),
        writes=np.stack([np.zeros(shape), np.zeros(shape), act * vw], axis=-1),
        in_spm=(False, hw_mode is HWMode.SCS, False),
        shared_footprint=(False, True, False),
        # A multi-word vertex value is one gather: the first word's fill
        # covers the rest of the row.  Only one output load per (row,
        # vblock) first touch is exposed; a multi-word row is covered by
        # its first fill.
        distinct_touches=np.stack(
            [np.full(shape, np.inf), nnz, out_pe.reshape(shape)], axis=-1
        ),
        fill_granule=(0, vw if vw > 1 else 0, vw),
        compute_ops=nnz * _OPS_PER_ENTRY + act * semiring.combine_flops,
        lcp_compute_ops=n_vblocks * _VBLOCK_SYNC,
        tile_spm_fill_words=(
            float(matrix.n_cols * vw) if hw_mode is HWMode.SCS else 0.0
        ),
        fixed_overhead_cycles=_FIXED_OVERHEAD + n_vblocks * _VBLOCK_SYNC,
        meta={
            "n_vblocks": n_vblocks,
            "vblock_width": width,
            "balanced": schedule.balanced,
            "active_entries": active_entries,
        },
    )

