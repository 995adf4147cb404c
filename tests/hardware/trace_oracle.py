"""Trace replay and the exact OP heap merge: the analytic model's oracles.

The system prices every kernel with the analytic model
(:mod:`repro.hardware.analytic`).  This module holds what validates it,
as the paper's gem5 runs stand behind its trace-based model:

* :class:`TraceEngine` replays exact per-PE word-address traces
  (:class:`PETrace`) through set-associative LRU caches
  (:class:`~.reference_cache.ReferenceCacheBank`) arranged per hardware
  mode, and composes latencies with the analytic model's own formulas;
* :func:`traced_ip` and :func:`traced_op` run a kernel and build its
  traces from the schedule the kernels expose (``_ip_schedule``,
  ``_op_schedule`` and ``SparseVector.chunk``);
* :func:`exact_op` runs the OP kernel's real per-(tile, PE) heap merge
  (:class:`MergeHeap`) and raises unless it agrees with the vectorised
  kernel; its measured heap counts price the profile;
* :class:`BlockedCOO` is the stored layout whose order the IP trace's
  sequential matrix stream assumes (``tests/spmv/test_schedule_layout.py``).

Nothing under ``src/`` imports this module.  It is not a ``test_*``
module, so pytest does not rewrite its asserts and ``python -O`` would
strip bare ones: every check here raises explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError, SimulationError
from repro.formats import COOMatrix, CSCMatrix, DenseVector, SparseVector
from repro.hardware import Geometry, HWMode, KernelProfile, Pattern, Region
from repro.hardware.hwconfig import Sharing
from repro.hardware.latency import compose_latency, l1_base_latency, spm_latency
from repro.hardware.params import DEFAULT_PARAMS, HardwareParams
from repro.hardware.stats import MemCounters, RunReport, TileReport
from repro.spmv import SpMVResult, inner_product
from repro.spmv.inner import _ip_schedule
from repro.spmv.outer import _op_column, _op_schedule
from repro.spmv.semiring import Semiring

from .reference_cache import ReferenceCacheBank

__all__ = [
    "PETrace",
    "interleave_round_robin",
    "TraceEngine",
    "traced_ip",
    "traced_op",
    "exact_op",
    "MergeHeap",
    "BlockedCOO",
]


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
@dataclass
class PETrace:
    """Exact per-PE word-address trace.

    ``regions`` tags each access with a :class:`Region` value; ``addrs``
    holds region-local word offsets (the trace engine relocates regions
    into disjoint address ranges); ``writes`` flags stores.
    """

    regions: np.ndarray
    addrs: np.ndarray
    writes: np.ndarray

    def __post_init__(self):
        if not (len(self.regions) == len(self.addrs) == len(self.writes)):
            raise SimulationError("trace arrays must have equal length")

    @property
    def n_accesses(self) -> int:
        return len(self.addrs)

    @classmethod
    def empty(cls) -> "PETrace":
        e = np.zeros(0, dtype=np.int64)
        return cls(e.astype(np.int8), e, e.astype(bool))

    @classmethod
    def concat(cls, parts: List["PETrace"]) -> "PETrace":
        """Concatenate traces in program order."""
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.regions for p in parts]),
            np.concatenate([p.addrs for p in parts]),
            np.concatenate([p.writes for p in parts]),
        )


def interleave_round_robin(
    lengths: Iterable[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Ordering that interleaves several program-order streams fairly.

    Returns ``(source, position)`` arrays: processing the streams in this
    order approximates the concurrent execution of one PE per stream.
    Streams advance in lockstep until they run out.
    """
    lengths = list(lengths)
    total = int(sum(lengths))
    source = np.empty(total, dtype=np.int64)
    position = np.empty(total, dtype=np.int64)
    if total == 0:
        return source, position
    # Sort all (index_within_stream, stream) pairs lexicographically.
    src = np.concatenate([np.full(n, i, dtype=np.int64) for i, n in enumerate(lengths)])
    pos = np.concatenate([np.arange(n, dtype=np.int64) for n in lengths])
    order = np.lexsort((src, pos))
    return src[order], pos[order]


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
#: Word-address stride separating relocated regions (2^40 words).
_REGION_STRIDE = 1 << 40


def _relocate(regions: np.ndarray, addrs: np.ndarray) -> np.ndarray:
    """Map region-local offsets into the disjoint global address space."""
    return addrs + regions.astype(np.int64) * _REGION_STRIDE


def _merge_streams(streams) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Round-robin-interleave per-PE ``(addrs, writes)`` streams.

    Returns the merged ``(addrs, writes)`` plus the ``(src, pos)``
    bookkeeping needed to scatter per-access results back per stream.
    """
    streams = list(streams)
    src, pos = interleave_round_robin(len(a) for a, _w in streams)
    addrs = np.empty(len(src), dtype=np.int64)
    writes = np.empty(len(src), dtype=bool)
    for i, (a, w) in enumerate(streams):
        sel = src == i
        addrs[sel] = a[pos[sel]]
        writes[sel] = w[pos[sel]]
    return addrs, writes, src, pos


def _split_hits(
    hits: np.ndarray, src: np.ndarray, pos: np.ndarray, n_streams: int
) -> List[np.ndarray]:
    """Undo :func:`_merge_streams`: per-stream hit masks in program order."""
    out = []
    for i in range(n_streams):
        sel = src == i
        back = np.empty(int(sel.sum()), dtype=bool)
        back[pos[sel]] = hits[sel]
        out.append(back)
    return out


class TraceEngine:
    """Replays kernel traces through modelled caches.

    Kernels emit *region-local global word offsets*: an access to matrix
    entry ``k`` uses offset ``k`` whichever PE issues it, and an access
    to vector element ``j`` uses offset ``j``.  The engine relocates each
    :class:`~repro.hardware.profile.Region` into a disjoint address
    range, so regions never alias while shared structures (the vector)
    naturally overlap between PEs.  Latencies are composed with the
    analytic model's formulas from the same profile columns (unused
    stream slots are outside SPM, so they never pin a region).
    """

    def __init__(self, geometry: Geometry, params: HardwareParams = DEFAULT_PARAMS):
        self.geometry = geometry
        self.params = params

    # ------------------------------------------------------------------
    def evaluate(
        self, profile: KernelProfile, traces: Optional[List[PETrace]]
    ) -> RunReport:
        """Price one kernel invocation from its exact traces, one
        :class:`PETrace` per PE, tile-major."""
        n_tiles, n_pes = profile.count.shape[:2]
        if (
            traces is None
            or len(traces) != n_tiles * n_pes
            or any(t is None for t in traces)
        ):
            raise SimulationError(
                "trace replay needs one PETrace per PE of the profile"
            )
        geom, params, mode = self.geometry, self.params, profile.mode
        counters = MemCounters()
        tile_reports: List[TileReport] = []
        dram_seq = 0.0
        dram_rand = 0.0
        line = params.cache_line_words
        l1_base = l1_base_latency(mode, geom, params)
        spm_lat = spm_latency(mode, geom, params)

        l2_shared = mode.l2_sharing is Sharing.SHARED
        shared_l2 = (
            ReferenceCacheBank.banked(geom.tiles * geom.l2_banks_per_tile, params)
            if l2_shared
            else None
        )
        # Collected per tile: (pe_partials, miss streams for L2, ...)
        staged = []

        for t_idx in range(n_tiles):
            tile_traces = traces[t_idx * n_pes : (t_idx + 1) * n_pes]
            # Which regions live in SPM for this tile (uniform across PEs),
            # and each region's pattern (its first stream's).
            spm_regions = np.unique(profile.region[t_idx][profile.in_spm[t_idx]])
            patterns: Dict[int, int] = {}
            for region, pattern in zip(
                profile.region[t_idx].ravel().tolist(),
                profile.pattern[t_idx].ravel().tolist(),
            ):
                patterns.setdefault(region, pattern)

            # Split each PE's trace into SPM and cache-path accesses.
            cache_parts = []  # (pe_idx, regions, addrs, writes)
            spm_counts = np.zeros(n_pes)
            for pe_idx, tr in enumerate(tile_traces):
                in_spm = np.isin(tr.regions, spm_regions)
                spm_counts[pe_idx] = int(in_spm.sum())
                cache_parts.append(
                    (
                        tr.regions[~in_spm],
                        _relocate(tr.regions[~in_spm], tr.addrs[~in_spm]),
                        tr.writes[~in_spm],
                    )
                )

            # --- L1 simulation ------------------------------------------
            hit1 = [None] * n_pes
            if mode.l1_sharing is Sharing.SHARED:
                banks = geom.l1_banks_per_tile
                if mode is HWMode.SCS:
                    banks = max(banks // 2, 1)
                l1 = ReferenceCacheBank.banked(banks, params)
                addrs, writes, src, pos = _merge_streams(
                    (p[1], p[2]) for p in cache_parts
                )
                hits = l1.run_trace(addrs, writes)
                hit1 = _split_hits(hits, src, pos, n_pes)
                wb1 = l1.writebacks
            else:
                wb1 = 0
                for i, (regs, addrs, writes) in enumerate(cache_parts):
                    if mode is HWMode.PS:
                        hit1[i] = np.zeros(len(addrs), dtype=bool)  # no L1 cache
                    else:
                        bank = ReferenceCacheBank(params)
                        hit1[i] = bank.run_trace(addrs, writes)
                        wb1 += bank.writebacks

            staged.append((cache_parts, hit1, spm_counts, patterns, wb1))

        # --- L2 simulation (needs all tiles when shared) ------------------
        if l2_shared:
            # Interleave every tile's miss streams through one shared L2.
            flat = []  # (tile_idx, pe_idx, regs, addrs, writes)
            for t_idx, (parts, hit1, _spm, _pat, _wb) in enumerate(staged):
                for p_idx, (regs, addrs, writes) in enumerate(parts):
                    miss = ~hit1[p_idx]
                    flat.append((t_idx, p_idx, regs[miss], addrs[miss], writes[miss]))
            addrs, writes, src, pos = _merge_streams((f[3], f[4]) for f in flat)
            hits = shared_l2.run_trace(addrs, writes)
            masks = _split_hits(hits, src, pos, len(flat))
            hit2_of = {(f[0], f[1]): m for f, m in zip(flat, masks)}
            l2_writebacks = shared_l2.writebacks
        else:
            hit2_of = {}
            l2_writebacks = 0
            for t_idx, (parts, hit1, _spm, _pat, _wb) in enumerate(staged):
                l2 = ReferenceCacheBank.banked(geom.l2_banks_per_tile, params)
                for p_idx, (regs, addrs, writes) in enumerate(parts):
                    miss = ~hit1[p_idx]
                    hit2_of[(t_idx, p_idx)] = l2.run_trace(addrs[miss], writes[miss])
                l2_writebacks += l2.writebacks

        # --- latency composition ------------------------------------------
        fill_rate = max(
            params.spm_fill_cycles_per_word,
            geom.tiles / params.dram_words_per_cycle,
        )
        visible_fill = fill_rate * (1.0 - params.spm_fill_overlap)
        compute_ops = profile.compute_ops.tolist()
        pe_fills = profile.spm_fill_words.tolist()
        for t_idx, (parts, hit1, spm_counts, patterns, wb1) in enumerate(staged):
            tile_fill = float(profile.tile_spm_fill_words[t_idx])
            pe_cycles = []
            for p_idx, (regs, _addrs, _writes) in enumerate(parts):
                h1_mask = hit1[p_idx]
                h2_mask = hit2_of[(t_idx, p_idx)]
                cycles = compute_ops[t_idx][p_idx]
                counters.pe_ops += cycles
                cycles += spm_counts[p_idx] * spm_lat
                counters.spm_accesses += spm_counts[p_idx]

                miss_regs = regs[~h1_mask]
                for region in np.unique(regs):
                    sel = regs == region
                    count = int(sel.sum())
                    h1 = float(h1_mask[sel].sum()) / count
                    m_sel = miss_regs == region
                    m1 = int(m_sel.sum())
                    h2 = float(h2_mask[m_sel].sum()) / m1 if m1 else 1.0
                    pattern = patterns.get(int(region), Pattern.RANDOM)
                    lat = compose_latency(l1_base, h1, h2, pattern, params)
                    cycles += count * lat
                    counters.l1_accesses += count
                    counters.l1_hits += h1 * count
                    counters.l2_accesses += m1
                    counters.l2_hits += h2 * m1
                    m2 = m1 - int(h2_mask[m_sel].sum())
                    fill = m2 * line
                    counters.dram_words += fill
                    if pattern == Pattern.SEQUENTIAL:
                        dram_seq += fill
                    else:
                        dram_rand += fill
                    if mode.l1_sharing is Sharing.SHARED:
                        counters.xbar_hops += count
                    counters.xbar_hops += m1

                pe_fill = pe_fills[t_idx][p_idx]
                if pe_fill:
                    cycles += pe_fill * visible_fill
                    counters.dram_words += pe_fill
                    counters.spm_accesses += pe_fill
                    dram_seq += pe_fill
                if tile_fill:
                    cycles += tile_fill * visible_fill
                pe_cycles.append(cycles)

            serial = float(profile.lcp_serial_elements[t_idx])
            output_words = float(profile.lcp_output_words[t_idx])
            lcp_ops = float(profile.lcp_compute_ops[t_idx])
            out_rows = output_words / 2.0  # (index, value) pairs
            lcp_cycles = (
                serial * params.lcp_cycles_per_element
                + out_rows * params.lcp_rmw_cycles_per_row
                + lcp_ops
            )
            counters.lcp_ops += serial * 4 + lcp_ops
            counters.dram_words += out_rows + output_words
            dram_rand += out_rows
            dram_seq += output_words
            if tile_fill:
                counters.dram_words += tile_fill
                counters.spm_accesses += tile_fill
                dram_seq += tile_fill
            tile_reports.append(TileReport(pe_cycles=pe_cycles, lcp_cycles=lcp_cycles))

        wb_words = l2_writebacks * line
        counters.dram_words += wb_words
        dram_seq += wb_words

        compute_cycles = max(t.cycles for t in tile_reports)
        bw_cycles = (
            dram_seq / params.dram_words_per_cycle
            + dram_rand
            / (params.dram_words_per_cycle * params.dram_random_efficiency)
        )
        total = max(compute_cycles, bw_cycles) + profile.fixed_overhead_cycles
        return RunReport(
            cycles=total,
            counters=counters,
            tile_reports=tile_reports,
            bandwidth_floor_cycles=bw_cycles,
            clock_hz=params.clock_hz,
            detail={
                "compute_cycles": compute_cycles,
                "mode": mode.label,
                "algorithm": profile.algorithm,
                "replayed_accesses": sum(t.n_accesses for t in traces),
            },
        )


# ----------------------------------------------------------------------
# The IP trace
# ----------------------------------------------------------------------
def traced_ip(
    matrix: COOMatrix,
    vector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.SC,
    params: HardwareParams = DEFAULT_PARAMS,
    current: Optional[np.ndarray] = None,
    partition=None,
    balanced: bool = True,
    profile_only: bool = False,
    vblock_width: Optional[int] = None,
) -> Tuple[SpMVResult, List[PETrace]]:
    """:func:`~repro.spmv.inner.inner_product` plus one exact trace per PE.

    The traces follow the kernel's static schedule (``_ip_schedule``):
    each PE walks its contiguous run of entries vblock by vblock.
    Scalar semirings only.
    """
    if semiring.value_words != 1:
        raise ConfigurationError("trace generation supports scalar semirings only")
    result = inner_product(
        matrix, vector, semiring, geometry, hw_mode, params, current=current,
        partition=partition, balanced=balanced, profile_only=profile_only,
        vblock_width=vblock_width,
    )
    schedule = _ip_schedule(
        matrix, geometry, hw_mode, params, partition, balanced, 1,
        vblock_width, "traced_ip",
    )
    if isinstance(vector, DenseVector):
        vector = vector.data
    rows, cols = matrix.rows, matrix.cols
    active = np.asarray(vector, dtype=np.float64)[cols] != semiring.absent
    e = schedule.pe_entries
    traces = [
        _ip_trace(int(e[k]), int(e[k + 1]), rows, cols, active, schedule.width)
        for k in range(geometry.n_pes)
    ]
    return result, traces


def _ip_trace(
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
        return PETrace.empty()
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
    # paper's preprocessing, BlockedCOO), so the matrix stream is
    # strictly sequential within this PE's contiguous row-partition range.
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


# ----------------------------------------------------------------------
# The exact OP heap merge
# ----------------------------------------------------------------------
#: Address stride separating different PEs' private heaps (words).
_HEAP_PE_STRIDE = 1 << 22


def exact_op(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.PC,
    params: HardwareParams = DEFAULT_PARAMS,
    current: Optional[np.ndarray] = None,
    partition=None,
    balanced: bool = True,
) -> SpMVResult:
    """:func:`~repro.spmv.outer.outer_product` through the real heap merge.

    The values are the merge's; they must agree with the vectorised
    kernel's or :class:`SimulationError` is raised.  The profile prices
    the heap by the merge's measured accesses and compares.
    """
    return _exact_op(
        matrix, frontier, semiring, geometry, hw_mode, params, current,
        partition, balanced, with_trace=False,
    )[0]


def traced_op(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.PC,
    params: HardwareParams = DEFAULT_PARAMS,
    current: Optional[np.ndarray] = None,
    partition=None,
    balanced: bool = True,
) -> Tuple[SpMVResult, List[PETrace]]:
    """:func:`exact_op` plus one exact trace per PE: the merge issues the
    frontier, column-pointer, column and heap accesses in program order."""
    return _exact_op(
        matrix, frontier, semiring, geometry, hw_mode, params, current,
        partition, balanced, with_trace=True,
    )


def _exact_op(
    matrix, frontier, semiring, geometry, hw_mode, params, current, partition,
    balanced, with_trace,
):
    if semiring.value_words != 1:
        raise ConfigurationError("the OP kernel handles scalar semirings")
    schedule = _op_schedule(matrix, geometry, hw_mode, params, partition, balanced)
    chunks = frontier.chunk(geometry.pes_per_tile)
    merged, traces, merge_stats = _exact_merge(
        matrix, frontier, semiring, chunks, schedule, current, with_trace
    )
    result = _op_column(
        matrix, schedule, frontier, semiring, current, False, "exact_op",
        merge_stats,
    )
    prev = (
        np.asarray(current, dtype=np.float64)
        if current is not None
        else semiring.init_output(matrix.n_rows, None)
    )
    values = semiring.apply_vector_op(merged, prev)
    if not np.allclose(values, result.values, equal_nan=True):
        raise SimulationError(
            "exact heap merge disagrees with the vectorised OP kernel"
        )
    exact = SpMVResult(
        values=values, touched=result.touched, profile=result.profile,
        semiring=semiring,
    )
    return exact, traces


def _exact_merge(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    chunks,
    schedule,
    current: Optional[np.ndarray],
    with_trace: bool,
):
    """Element-by-element heap merge, per (tile, PE) — the real schedule.

    Returns the reduced output array (before the Vector_Op), the per-PE
    traces (or None), and the measured heap statistics keyed by PE cell
    index, as :func:`~repro.spmv.outer._build_op_profile` reads them.
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
            cursors = []  # [next_pos, end_pos, v_src, column]
            for j, vj in zip(cidx.tolist(), cval.tolist()):
                if with_trace:
                    base = 2 * int(np.searchsorted(frontier.indices, j))
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
                dst_val = np.array([cur[row]]) if semiring.needs_dst else None
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
                    # relocate the PE-private heap out of other PEs' way
                    offs[regs == int(Region.HEAP)] += k * _HEAP_PE_STRIDE
                    traces[k] = PETrace(regs, offs, np.asarray(wrs, dtype=bool))
                else:
                    traces[k] = PETrace.empty()

    stats = {"heap_accesses": heap_acc, "compares": compares}
    return out, (traces if with_trace else None), stats


_WORDS_PER_SLOT = 2  # (row index, cursor id)


class MergeHeap:
    """The OP kernel's sorted list of column heads, as a binary min-heap
    of ``(key, cursor)`` pairs ordered by key (row index).

    Section III-A: "The sorted list maintaining the head elements of the
    non-empty matrix columns is kept in the private SPM ... For higher
    scalability, the sorted list uses a heap structure, i.e. a binary
    tree which guarantees that the parent is smaller than its children."

    The heap is *instrumented*: every slot read/write is counted and can
    be recorded as a word-offset trace (each heap slot is two words: row
    index + cursor id).
    """

    def __init__(self, record_trace: bool = False, sink=None):
        self._keys: List[int] = []
        self._cursors: List[int] = []
        self.reads = 0
        self.writes = 0
        self.compares = 0
        self.max_size = 0
        self._trace: Optional[List[Tuple[int, bool]]] = [] if record_trace else None
        #: Optional callable ``(word_offset, is_write)`` invoked on every
        #: slot-word access — lets the merge interleave heap accesses with
        #: its own column/frontier loads in one program-order trace.
        self._sink = sink

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    @property
    def accesses(self) -> int:
        """Total word accesses to heap storage."""
        return self.reads + self.writes

    # -- instrumented slot accessors -----------------------------------
    def _record(self, i: int, write: bool) -> None:
        if self._trace is not None:
            self._trace.append((i * _WORDS_PER_SLOT, write))
            self._trace.append((i * _WORDS_PER_SLOT + 1, write))
        if self._sink is not None:
            self._sink(i * _WORDS_PER_SLOT, write)
            self._sink(i * _WORDS_PER_SLOT + 1, write)

    def _read(self, i: int) -> Tuple[int, int]:
        self.reads += _WORDS_PER_SLOT
        self._record(i, False)
        return self._keys[i], self._cursors[i]

    def _write(self, i: int, key: int, cursor: int) -> None:
        self.writes += _WORDS_PER_SLOT
        self._record(i, True)
        self._keys[i] = key
        self._cursors[i] = cursor

    # ------------------------------------------------------------------
    def push(self, key: int, cursor: int) -> None:
        """Insert an element and sift it up."""
        self._keys.append(key)
        self._cursors.append(cursor)
        self.writes += _WORDS_PER_SLOT
        self._record(len(self._keys) - 1, True)
        self._sift_up(len(self._keys) - 1)
        self.max_size = max(self.max_size, len(self._keys))

    def peek(self) -> Tuple[int, int]:
        """Smallest ``(key, cursor)`` without removal."""
        if not self._keys:
            raise SimulationError("peek on empty merge heap")
        return self._read(0)

    def pop(self) -> Tuple[int, int]:
        """Remove and return the smallest ``(key, cursor)``."""
        if not self._keys:
            raise SimulationError("pop on empty merge heap")
        top = self._read(0)
        lk, lc = self._read(len(self._keys) - 1)
        self._keys.pop()
        self._cursors.pop()
        if self._keys:
            self._write(0, lk, lc)
            self._sift_down(0)
        return top

    def replace_top(self, key: int, cursor: int) -> Tuple[int, int]:
        """Pop the minimum and push a new element in one sift.

        This is the merge loop's hot operation: "Pop the element with the
        smallest index and load next element in the matrix column."
        """
        if not self._keys:
            raise SimulationError("replace_top on empty merge heap")
        top = self._read(0)
        self._write(0, key, cursor)
        self._sift_down(0)
        return top

    # ------------------------------------------------------------------
    def _sift_up(self, i: int) -> None:
        while i > 0:
            parent = (i - 1) // 2
            self.compares += 1
            pk, pc = self._read(parent)
            ik, ic = self._read(i)
            if pk <= ik:
                break
            self._write(parent, ik, ic)
            self._write(i, pk, pc)
            i = parent

    def _sift_down(self, i: int) -> None:
        n = len(self._keys)
        while True:
            left, right = 2 * i + 1, 2 * i + 2
            smallest = i
            sk, sc = self._read(i)
            best_k, best_c = sk, sc
            if left < n:
                self.compares += 1
                lk, lc = self._read(left)
                if lk < best_k:
                    smallest, best_k, best_c = left, lk, lc
            if right < n:
                self.compares += 1
                rk, rc = self._read(right)
                if rk < best_k:
                    smallest, best_k, best_c = right, rk, rc
            if smallest == i:
                return
            self._write(smallest, sk, sc)
            self._write(i, best_k, best_c)
            i = smallest

    # ------------------------------------------------------------------
    def trace_arrays(self):
        """``(word_offsets, write_flags)`` of every recorded heap access."""
        if self._trace is None:
            raise SimulationError("heap was constructed without trace recording")
        if not self._trace:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
        offs, wr = zip(*self._trace)
        return np.asarray(offs, dtype=np.int64), np.asarray(wr, dtype=bool)

    @property
    def words(self) -> int:
        """Peak heap footprint in words."""
        return self.max_size * _WORDS_PER_SLOT

    def check_invariant(self) -> bool:
        """Verify the parent<=child property (tests)."""
        n = len(self._keys)
        return all(
            self._keys[(i - 1) // 2] <= self._keys[i] for i in range(1, n)
        )


# ----------------------------------------------------------------------
# The IP kernel's stored layout
# ----------------------------------------------------------------------
class BlockedCOO:
    """A COO matrix re-laid-out in (partition, vblock)-major order.

    Section III-B: each PE's equal-nnz row partition is "further divided
    into multiple vertical blocks (vblocks) so that the vector elements
    corresponding to each vblock can fit in the shared SPM", and the PEs
    stream their partitions vblock by vblock.  For that stream to be
    *sequential* in memory (the property the matrix stream's
    prefetchability rests on) the stored layout must match the schedule:
    entries grouped by (PE partition, vblock), row-major inside each
    group.  This is the layout the IP trace's addresses assume, and what
    a real port of the kernel would DMA from.

    Parameters
    ----------
    coo:
        Row-major source matrix.
    partition_bounds:
        Flat row boundaries, one partition per PE in schedule order
        (``n_partitions + 1`` entries; build from
        :class:`repro.spmv.partition.IPPartition` bounds).
    vblock_width:
        Columns per vertical block.
    """

    def __init__(self, coo: COOMatrix, partition_bounds, vblock_width: int):
        partition_bounds = np.asarray(partition_bounds, dtype=np.int64)
        if vblock_width <= 0:
            raise ShapeError("vblock width must be positive")
        if (
            len(partition_bounds) < 2
            or partition_bounds[0] != 0
            or partition_bounds[-1] != coo.n_rows
            or np.any(np.diff(partition_bounds) < 0)
        ):
            raise ShapeError("partition bounds must cover [0, n_rows]")
        self.n_rows, self.n_cols = coo.shape
        self.vblock_width = int(vblock_width)
        self.n_vblocks = max(1, -(-coo.n_cols // vblock_width))
        self.partition_bounds = partition_bounds
        self.n_partitions = len(partition_bounds) - 1

        part_of = np.clip(
            np.searchsorted(partition_bounds, coo.rows, side="right") - 1,
            0,
            self.n_partitions - 1,
        )
        group = part_of * self.n_vblocks + coo.cols // vblock_width
        # stable sort: row-major order is preserved inside each group
        order = np.argsort(group, kind="stable")
        self.rows = coo.rows[order]
        self.cols = coo.cols[order]
        self.vals = coo.vals[order]
        counts = np.bincount(group, minlength=self.n_partitions * self.n_vblocks)
        self._group_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self._group_ptr[1:])

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Stored entries (identical to the source matrix's)."""
        return len(self.vals)

    def group_range(self, partition: int, vblock: int) -> Tuple[int, int]:
        """Storage extent ``[lo, hi)`` of one (partition, vblock) group."""
        if not 0 <= partition < self.n_partitions:
            raise ShapeError(f"partition {partition} out of range")
        if not 0 <= vblock < self.n_vblocks:
            raise ShapeError(f"vblock {vblock} out of range")
        g = partition * self.n_vblocks + vblock
        return int(self._group_ptr[g]), int(self._group_ptr[g + 1])

    def partition_range(self, partition: int) -> Tuple[int, int]:
        """Storage extent of one PE's whole (contiguous) stream."""
        lo, _ = self.group_range(partition, 0)
        _, hi = self.group_range(partition, self.n_vblocks - 1)
        return lo, hi

    def iter_schedule(
        self, partition: int
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(vblock, rows, cols, vals)`` in execution order."""
        for vb in range(self.n_vblocks):
            lo, hi = self.group_range(partition, vb)
            if hi > lo:
                yield vb, self.rows[lo:hi], self.cols[lo:hi], self.vals[lo:hi]

    def to_coo(self) -> COOMatrix:
        """Back to canonical row-major order (for equality checks)."""
        return COOMatrix(self.n_rows, self.n_cols, self.rows, self.cols, self.vals)

    def check_invariants(self) -> bool:
        """Every group holds only its own rows/columns; stream covers all."""
        for p in range(self.n_partitions):
            r_lo = self.partition_bounds[p]
            r_hi = self.partition_bounds[p + 1]
            for vb, rows, cols, _vals in self.iter_schedule(p):
                if len(rows) == 0:
                    continue
                if rows.min() < r_lo or rows.max() >= r_hi:
                    return False
                if (
                    cols.min() < vb * self.vblock_width
                    or cols.max() >= (vb + 1) * self.vblock_width
                ):
                    return False
        return int(self._group_ptr[-1]) == self.nnz
