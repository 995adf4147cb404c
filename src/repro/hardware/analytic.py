"""Closed-form performance estimation (the large-system fidelity mode).

The paper evaluates systems up to 8x16 in gem5 and switches to "a
trace-based simulation model" beyond that because detailed simulation
becomes prohibitive (Section IV-A).  This module is the analogous fast
mode: it prices a :class:`~repro.hardware.profile.KernelProfile` without
replaying addresses, using a reuse-distance cache model.

Hit-rate model (per cache level)
--------------------------------
LRU keeps a line resident while fewer than ``C`` distinct lines are
inserted between consecutive touches.  For a random-access stream ``s``
over footprint ``F_s`` issuing ``n_s`` of the level's ``A`` accesses, the
mean touch interval of one of its lines is ``I_s = A * F_s / n_s``
accesses, during which the level inserts ``K_s = insert_rate * I_s`` new
lines (``insert_rate`` = total misses / A, a fixed point solved by
iteration).  With approximately exponential interval spread the survival
probability is ``h = 1 - exp(-C / K_s)`` — smooth in exactly the way
cache behaviour is.  Sequential streams insert their lines once per pass
and are assumed prefetched.  Compulsory misses of a *shared* footprint
are split across the cores cooperating on it (a tile collectively takes
one cold miss per vector line, not one per PE — this is also how tiles
"fetch the vector elements for the other tiles into L2", Section III-B).

Latency composition is shared with the trace engine
(:mod:`repro.hardware.latency`): hits cost the issue slot plus
unhideable crossbar serialisation; miss latency is discounted by the
pattern's hide fraction (prefetchable stream / independent gather /
pointer chase).  A PE's cycles are ops plus access latencies; a tile
finishes with its slowest PE plus the LCP's serial tail (OP's merge and
its dependent read-modify-write of output rows — the term that keeps OP
from scaling with PEs per tile); the system finishes with the slowest
tile unless the HBM bandwidth floor is higher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .geometry import Geometry
from .hwconfig import HWMode, Sharing
from .latency import compose_latency, shared_conflict_cycles
from .params import HardwareParams
from .profile import AccessStream, KernelProfile, Pattern, Region
from .stats import MemCounters, RunReport, TileReport

__all__ = ["AnalyticModel"]

#: Fixed-point iterations for the insert-rate solve.
_FLUX_ITERATIONS = 4


@dataclass
class _Entry:
    """One stream's view at a cache level (counts may be aggregated)."""

    region: Region
    count: float
    footprint: float
    pattern: str
    passes: int
    cold_sharers: float = 1.0
    miss: float = 0.0  # solved


def _solve_level(entries: List[_Entry], capacity_words: float, params) -> None:
    """Fixed-point solve of per-entry miss counts at one cache level."""
    line = params.cache_line_words
    c_lines = max(capacity_words / line, 1e-9)
    total = sum(e.count for e in entries)
    if total <= 0:
        for e in entries:
            e.miss = 0.0
        return
    # Capacity shares among random/dependent entries (by access count).
    rand_total = sum(
        e.count for e in entries if e.pattern != Pattern.SEQUENTIAL
    )
    # Initial guess: streams miss once per line, random misses everything.
    for e in entries:
        cold = min(e.count, e.footprint / line / max(e.cold_sharers, 1.0))
        if e.pattern == Pattern.SEQUENTIAL:
            e.miss = min(e.count, cold * e.passes)
        else:
            e.miss = e.count
    for _ in range(_FLUX_ITERATIONS):
        insert_rate = sum(e.miss for e in entries) / total
        for e in entries:
            if e.count <= 0:
                e.miss = 0.0
                continue
            cold = min(
                e.count, e.footprint / line / max(e.cold_sharers, 1.0)
            )
            if e.pattern == Pattern.SEQUENTIAL:
                fp_lines = e.footprint / line
                if e.passes > 1 and fp_lines <= 0.5 * c_lines:
                    e.miss = min(e.count, cold)  # later passes hit
                else:
                    e.miss = min(e.count, cold * e.passes)
                continue
            fp_lines = max(e.footprint / line, 1e-9)
            interval = total * fp_lines / e.count
            k = insert_rate * interval
            h_flux = 1.0 - math.exp(-c_lines / k) if k > 0 else 1.0
            share = e.count / rand_total if rand_total else 1.0
            h_cap = min(1.0, c_lines * share / fp_lines)
            h = min(h_flux, max(h_cap, 0.0))
            e.miss = min(e.count, cold + max(e.count - cold, 0.0) * (1.0 - h))


def _miss_bearing(stream: AccessStream) -> float:
    """Load accesses of a stream that can actually miss.

    Stores retire through the write buffer; when ``distinct_touches`` is
    set, the remaining loads are register-run re-touches that hit by
    construction.
    """
    reads = max(stream.count - stream.writes, 0.0)
    if stream.distinct_touches is not None:
        reads = min(reads, stream.distinct_touches)
    return reads


#: Cycles a store occupies the pipeline (write-buffered).
_STORE_COST = 1.0


class AnalyticModel:
    """Prices kernel profiles on a given geometry/parameter set."""

    def __init__(self, geometry: Geometry, params: HardwareParams):
        self.geometry = geometry
        self.params = params

    # ------------------------------------------------------------------
    # Latency building blocks (also used by the trace engine)
    # ------------------------------------------------------------------
    def _spm_latency(self, mode: HWMode) -> float:
        """Visible cycles of one scratchpad access under ``mode``.

        A pipelined in-order core hides the 1-2 cycle response behind the
        issue slot; visible are the issue cycle, the software
        SPM-management overhead and — for the shared SPM — crossbar
        serialisation (in SCS roughly P/2 requesters contend for the P/2
        SPM banks).
        """
        p = self.params
        if mode is HWMode.SCS:
            half = max(self.geometry.pes_per_tile // 2, 1)
            serial = shared_conflict_cycles(half, half, p) - p.xbar_arbitration
            return 1.0 + p.spm_management_overhead + max(serial, 0.0)
        return 1.0 + p.spm_management_overhead

    def _l1_base_latency(self, mode: HWMode) -> float:
        """Visible cycles of an L1 cache-path access that hits."""
        p = self.params
        if mode.l1_sharing is Sharing.SHARED:
            requesters = self.geometry.pes_per_tile
            banks = self.geometry.l1_banks_per_tile
            if mode is HWMode.SCS:  # traffic and banks both halve
                requesters = max(requesters // 2, 1)
                banks = max(banks // 2, 1)
            serial = shared_conflict_cycles(requesters, banks, p) - (
                p.xbar_arbitration
            )
            return 1.0 + max(serial, 0.0)
        return 1.0

    # ------------------------------------------------------------------
    def evaluate(self, profile: KernelProfile) -> RunReport:
        """Price one kernel invocation; returns cycles + counters."""
        geom, params, mode = self.geometry, self.params, profile.mode
        counters = MemCounters()
        tile_reports: List[TileReport] = []
        dram_seq = 0.0
        dram_rand = 0.0
        line = params.cache_line_words
        l1_base = self._l1_base_latency(mode)
        spm_lat = self._spm_latency(mode)
        l1_capacity = mode.l1_cache_words(geom, params)
        l2_capacity = mode.l2_words(geom, params)
        l1_shared = mode.l1_sharing is Sharing.SHARED
        l2_shared = mode.l2_sharing is Sharing.SHARED
        fill_rate = max(
            params.spm_fill_cycles_per_word,
            geom.tiles / params.dram_words_per_cycle,
        )

        # ---- Stage 1: L1 hit rates per tile --------------------------
        # staged[t] = (per-PE [(stream, h1, m1)], spm info)
        staged: List[List[List[Tuple[AccessStream, float, float]]]] = []
        l2_entries: List[_Entry] = []  # aggregated per (tile, region)
        l2_entry_of: Dict[Tuple[int, int], _Entry] = {}
        for t_idx, tile in enumerate(profile.tiles):
            per_pe: List[List[Tuple[AccessStream, float, float]]] = []
            if l1_shared:
                # one solve for the tile's pooled cache-path streams
                agg: Dict[Region, _Entry] = {}
                for pe in tile.pes:
                    for s in pe.streams:
                        mb = _miss_bearing(s)
                        if s.in_spm or mb <= 0:
                            continue
                        e = agg.get(s.region)
                        if e is None:
                            agg[s.region] = _Entry(
                                s.region,
                                mb,
                                s.footprint,
                                s.pattern,
                                s.passes,
                                cold_sharers=(
                                    len(tile.pes) if s.shared_footprint else 1.0
                                ),
                            )
                        else:
                            e.count += mb
                            if not s.shared_footprint:
                                e.footprint += s.footprint
                            e.passes = max(e.passes, s.passes)
                entries = list(agg.values())
                _solve_level(entries, l1_capacity, params)
                rates = {
                    e.region: (1.0 - e.miss / e.count if e.count else 1.0)
                    for e in entries
                }
                for pe in tile.pes:
                    rows = []
                    for s in pe.streams:
                        mb = _miss_bearing(s)
                        if s.in_spm or mb <= 0:
                            rows.append((s, 1.0, 0.0))
                            continue
                        h1 = rates.get(s.region, 1.0)
                        rows.append((s, h1, mb * (1.0 - h1)))
                    per_pe.append(rows)
            else:
                for pe in tile.pes:
                    entries = []
                    own = []
                    for s in pe.streams:
                        mb = _miss_bearing(s)
                        if s.in_spm or mb <= 0:
                            own.append((s, None))
                            continue
                        e = _Entry(
                            s.region, mb, s.footprint, s.pattern, s.passes
                        )
                        entries.append(e)
                        own.append((s, e))
                    _solve_level(entries, l1_capacity, params)
                    rows = []
                    for s, e in own:
                        if e is None:
                            rows.append((s, 1.0, 0.0))
                        else:
                            h1 = 1.0 - e.miss / e.count if e.count else 1.0
                            rows.append((s, h1, e.miss))
                    per_pe.append(rows)
            staged.append(per_pe)
            # aggregate L1 misses into L2 entries (per tile x region)
            for rows in per_pe:
                for s, _h1, m1 in rows:
                    if s.in_spm or m1 <= 0:
                        continue
                    key = (t_idx if not l2_shared else -1, int(s.region))
                    e = l2_entry_of.get(key)
                    if e is None:
                        e = _Entry(
                            s.region,
                            0.0,
                            0.0,
                            s.pattern,
                            s.passes,
                            cold_sharers=1.0,
                        )
                        l2_entry_of[key] = e
                        l2_entries.append(e)
                    e.count += m1
                    # Footprints: a shared region appears once per L2
                    # scope; private ones accumulate.
                    if s.shared_footprint:
                        e.footprint = max(e.footprint, s.footprint)
                    else:
                        e.footprint += s.footprint

        # ---- Stage 2: L2 solve ----------------------------------------
        if l2_shared:
            _solve_level(l2_entries, l2_capacity, params)
        else:
            for t_idx in range(len(profile.tiles)):
                group = [
                    e
                    for (tt, _r), e in l2_entry_of.items()
                    if tt == t_idx
                ]
                _solve_level(group, l2_capacity, params)
        l2_rate: Dict[Tuple[int, int], float] = {}
        for key, e in l2_entry_of.items():
            l2_rate[key] = 1.0 - e.miss / e.count if e.count else 1.0

        # ---- Stage 3: latency composition ------------------------------
        for t_idx, tile in enumerate(profile.tiles):
            pe_cycles = []
            for pe, rows in zip(tile.pes, staged[t_idx]):
                cycles = pe.compute_ops
                counters.pe_ops += pe.compute_ops
                for s, h1, m1 in rows:
                    if s.count <= 0:
                        continue
                    if s.in_spm:
                        cycles += s.count * spm_lat
                        counters.spm_accesses += s.count
                        if mode is HWMode.SCS:
                            counters.xbar_hops += s.count
                        continue
                    key = (t_idx if not l2_shared else -1, int(s.region))
                    h2 = l2_rate.get(key, 1.0)
                    lat = compose_latency(l1_base, h1, h2, s.pattern, params)
                    mb = _miss_bearing(s)
                    cheap_loads = max(s.count - s.writes - mb, 0.0)
                    cycles += (
                        mb * lat
                        + cheap_loads * l1_base
                        + s.writes * _STORE_COST
                    )
                    counters.l1_accesses += s.count
                    counters.l1_hits += s.count - m1
                    counters.l2_accesses += m1
                    counters.l2_hits += h2 * m1
                    m2 = m1 * (1.0 - h2)
                    fill = m2 * (s.fill_granule if s.fill_granule else line)
                    # Read-modify-write streams dirty the lines they
                    # fetched; the eventual write-back doubles the fill
                    # traffic (stores themselves hit the fetched line).
                    writeback = fill if s.writes > 0 else 0.0
                    counters.dram_words += fill + writeback
                    if s.pattern == Pattern.SEQUENTIAL:
                        dram_seq += fill + writeback
                    else:
                        dram_rand += fill + writeback
                    if l1_shared:
                        counters.xbar_hops += s.count
                    counters.xbar_hops += m1
                visible_fill = fill_rate * (1.0 - params.spm_fill_overlap)
                if pe.spm_fill_words:
                    cycles += pe.spm_fill_words * visible_fill
                    counters.dram_words += pe.spm_fill_words
                    counters.spm_accesses += pe.spm_fill_words
                    dram_seq += pe.spm_fill_words
                if tile.spm_fill_words:
                    # Shared-SPM fill: PEs wait out the un-overlapped part.
                    cycles += tile.spm_fill_words * visible_fill
                pe_cycles.append(cycles)

            # --- LCP serial tail ----------------------------------------
            out_rows = tile.lcp_output_words / 2.0  # (index, value) pairs
            lcp_cycles = (
                tile.lcp_serial_elements * params.lcp_cycles_per_element
                + out_rows * params.lcp_rmw_cycles_per_row
                + tile.lcp_compute_ops
            )
            counters.lcp_ops += tile.lcp_serial_elements * 4 + tile.lcp_compute_ops
            # RMW traffic: read the old row value, write the new one.
            dram_rand += out_rows
            counters.dram_words += out_rows + tile.lcp_output_words
            dram_seq += tile.lcp_output_words
            if tile.spm_fill_words:
                counters.dram_words += tile.spm_fill_words
                counters.spm_accesses += tile.spm_fill_words
                dram_seq += tile.spm_fill_words
            tile_reports.append(TileReport(pe_cycles=pe_cycles, lcp_cycles=lcp_cycles))

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
            fidelity="analytic",
            clock_hz=params.clock_hz,
            detail={
                "compute_cycles": compute_cycles,
                "mode": mode.label,
                "algorithm": profile.algorithm,
            },
        )
