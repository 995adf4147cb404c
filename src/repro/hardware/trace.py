"""Trace-replay fidelity mode.

For small inputs the kernels attach an exact per-PE word-address trace to
their profile (see :class:`repro.hardware.profile.PETrace`).  This engine
replays those traces through real set-associative LRU caches arranged per
the active :class:`~repro.hardware.hwconfig.HWMode` — shared tile-level L1
(SC/SCS), private per-PE banks (PC), scratchpad bypass (SCS vector / PS
heap) — measures per-stream hit rates, and composes latencies with the
*same* formulas as the analytic mode, reading the same profile columns
(unused stream slots are outside SPM, so they never pin a region).

Address convention
------------------
Kernels emit *region-local global word offsets*: an access to matrix entry
``k`` uses offset ``k`` whichever PE issues it, and an access to vector
element ``j`` uses offset ``j``.  The engine relocates each
:class:`~repro.hardware.profile.Region` into a disjoint address range, so
regions never alias while shared structures (the vector) naturally overlap
between PEs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import SimulationError
from .cache import BankedCache, interleave_round_robin
from .geometry import Geometry
from .hwconfig import HWMode, Sharing
from .latency import compose_latency, l1_base_latency, spm_latency
from .params import HardwareParams
from .profile import KernelProfile, Pattern
from .stats import MemCounters, RunReport, TileReport

__all__ = ["TraceEngine"]

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
    """Replays kernel traces through modelled caches."""

    def __init__(self, geometry: Geometry, params: HardwareParams):
        self.geometry = geometry
        self.params = params

    # ------------------------------------------------------------------
    def evaluate(self, profile: KernelProfile) -> RunReport:
        """Price one kernel invocation from its exact traces."""
        if not profile.has_traces():
            raise SimulationError(
                "trace mode requires every PE profile to carry a PETrace; "
                "use the analytic mode for summarised profiles"
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
            BankedCache(geom.tiles * geom.l2_banks_per_tile, params)
            if l2_shared
            else None
        )
        # Collected per tile: (pe_partials, miss streams for L2, ...)
        staged = []

        n_tiles, n_pes = profile.count.shape[:2]
        for t_idx in range(n_tiles):
            traces = profile.traces[t_idx * n_pes : (t_idx + 1) * n_pes]
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
            for pe_idx, tr in enumerate(traces):
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
                l1 = BankedCache(banks, params)
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
                        bank = BankedCache(1, params)
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
                l2 = BankedCache(geom.l2_banks_per_tile, params)
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
            fidelity="trace",
            clock_hz=params.clock_hz,
            detail={
                "compute_cycles": compute_cycles,
                "mode": mode.label,
                "algorithm": profile.algorithm,
            },
        )
