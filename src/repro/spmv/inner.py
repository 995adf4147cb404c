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
partition structure, and (b) the per-PE hardware profile — and, on
request, an exact interleaved address trace for the trace-replay engine.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..analysis import sanitize
from ..errors import ConfigurationError, ShapeError
from ..formats import COOMatrix, DenseVector
from ..hardware import (
    Geometry,
    HWMode,
    KernelProfile,
    PETrace,
    Pattern,
    Region,
)
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..obs.tracer import traced
from ..perf import counters as _perf
from .partition import IPPartition, build_ip_partitions, vblock_width
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
    with_trace: bool = False,
    profile_only: bool = False,
    vblock_width: Optional[int] = None,
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
    with_trace:
        Attach exact per-PE address traces (scalar semirings only).
    profile_only:
        Build only the hardware profile (counts, streams and — with
        ``with_trace`` — traces are all structural) and skip the
        functional semiring computation; the returned result has
        ``values is None``.  Used by the runtime's pricing probes.
    vblock_width:
        Override the SPM-derived vertical-block width (a tuning plan's
        blocking choice).  Clamped to the SPM-fit width so SCS pinning
        stays feasible; affects only the modelled profile, never the
        functional values.
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
    if with_trace and vw != 1:
        raise ConfigurationError("trace generation supports scalar semirings only")
    return _ip_column(
        matrix, schedule, v, semiring, current, profile_only, with_trace,
        "inner_product/active",
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
    with_trace: bool,
    label: str,
) -> SpMVResult:
    """Run one validated dense frontier column through ``schedule``.

    The functional result is vectorised over the active entries; it is
    identical to the per-PE schedule because row partitions are disjoint
    and the reduce is commutative.  The accounting costs O(active
    entries) plus O(P log nnz).
    """
    rows, cols, vals = matrix.to_arrays()
    active = v[cols] != semiring.absent if v.ndim == 1 else None
    n_active = matrix.nnz if active is None else int(np.count_nonzero(active))
    # Compact once; a fully active frontier streams the arrays as stored.
    compact = n_active < matrix.nnz
    a_rows = rows[active] if compact else rows
    a_cols = cols[active] if compact else cols
    if profile_only:
        _perf.kernel_profile_only += 1
        out = None
        touched = None
    else:
        _perf.kernel_executions += 1
        a_vals = vals[active] if compact else vals
        out = semiring.init_output(matrix.n_rows, current)
        v_dst = None
        if semiring.needs_dst:
            if current is None:
                raise ShapeError(f"semiring {semiring.name} needs current dst values")
            v_dst = np.asarray(current, dtype=np.float64)[a_rows]
        contrib = semiring.combine(a_vals, v[a_cols], v_dst, a_cols, a_rows)
        semiring.scatter(out, a_rows, contrib)
        touched = np.zeros(matrix.n_rows, dtype=bool)
        touched[a_rows] = True
        prev = (
            np.asarray(current, dtype=np.float64)
            if current is not None
            else semiring.init_output(matrix.n_rows, None)
        )
        out = semiring.apply_vector_op(out, prev)

    active_edges = np.searchsorted(a_rows, schedule.pe_rows)
    act_pe = np.diff(active_edges)
    sanitize.active().check_histogram(label, act_pe, n_active)
    out_pe = _ip_first_touches(a_rows, a_cols, active_edges, schedule)
    trace_builder = None
    if with_trace:
        e, width = schedule.pe_entries, schedule.width

        def trace_builder(k):
            return _build_ip_trace(
                int(e[k]), int(e[k + 1]), rows, cols, active, width
            )

    profile = _build_ip_profile(
        matrix, semiring, schedule, act_pe, out_pe, n_active, trace_builder
    )
    return SpMVResult(values=out, touched=touched, profile=profile, semiring=semiring)


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
    fall back to ``np.unique``.
    """
    n_vblocks = schedule.n_vblocks
    keys = (
        a_rows
        if n_vblocks == 1
        else a_rows * np.int64(n_vblocks) + a_cols // schedule.width
    )
    head, tail = keys[:-1], keys[1:]
    if np.any(tail < head):
        distinct_rows = np.unique(keys) // n_vblocks
        return np.diff(np.searchsorted(distinct_rows, schedule.pe_rows))
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(tail, head, out=first[1:])
    return np.diff(np.searchsorted(np.flatnonzero(first), active_edges))


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
    trace_builder=None,
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
        traces=(
            None
            if trace_builder is None
            else [trace_builder(k) for k in range(geometry.n_pes)]
        ),
    )


def _build_ip_trace(
    lo: int,
    hi: int,
    rows: np.ndarray,
    cols: np.ndarray,
    active: np.ndarray,
    width: int,
) -> PETrace:
    """Exact access trace of the PE owning entries ``lo:hi``: per entry,
    3 matrix words, one vector gather, and (when the source is active)
    an output read-modify-write pair — in vblock-major schedule order."""
    if hi == lo:
        e = np.zeros(0, dtype=np.int64)
        return PETrace(e.astype(np.int8), e, e.astype(bool))
    order = lo + np.argsort(cols[lo:hi] // width, kind="stable")
    n = hi - lo
    act = active[order]
    per_entry = 4 + 2 * act.astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(per_entry)[:-1]])
    total = int(per_entry.sum())
    regions = np.empty(total, dtype=np.int8)
    addrs = np.empty(total, dtype=np.int64)
    writes = np.zeros(total, dtype=bool)
    # The stored partition is pre-blocked to match the schedule (the
    # paper's preprocessing), so the matrix stream is strictly
    # sequential within this PE's contiguous row-partition range.
    seq = lo + np.arange(n, dtype=np.int64)
    for off in range(3):  # matrix words (row, col, val)
        regions[starts + off] = int(Region.MATRIX)
        addrs[starts + off] = 3 * seq + off
    regions[starts + 3] = int(Region.VECTOR_IN)
    addrs[starts + 3] = cols[order]
    a_starts = starts[act]
    regions[a_starts + 4] = int(Region.VECTOR_OUT)
    addrs[a_starts + 4] = rows[order][act]
    regions[a_starts + 5] = int(Region.VECTOR_OUT)
    addrs[a_starts + 5] = rows[order][act]
    writes[a_starts + 5] = True
    return PETrace(regions, addrs, writes)
