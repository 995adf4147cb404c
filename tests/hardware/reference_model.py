"""Hand-written profiles and the scalar reference pricing model.

``pack`` turns a nested, stream-by-stream description (``Stream`` per
access group, ``PE`` and ``Tile`` records) into the columnar
:class:`~repro.hardware.profile.KernelProfile`, padding each PE's stream
list with zero-count slots, so tests can write profiles by hand.

``reference_evaluate`` is the analytic model as it was written before
profiles became columns: it walks the profile stream by stream in
program order — tiles, their PEs, each PE's slots — with one ``_Entry``
per stream at each cache level and a scalar fixed-point solve.  The
array model in :mod:`repro.hardware.analytic` must reproduce every
field of its reports exactly (``test_pricing_differential.py``).
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware import HWMode, KernelProfile, Pattern, Region
from repro.hardware.hwconfig import Sharing
from repro.hardware.latency import compose_latency, l1_base_latency, spm_latency
from repro.hardware.stats import MemCounters, RunReport, TileReport

__all__ = ["Stream", "PE", "Tile", "pack", "reference_evaluate"]


# ----------------------------------------------------------------------
# Hand-written profiles
# ----------------------------------------------------------------------
@dataclass
class Stream:
    """One stream, with the profile columns' defaults."""

    region: Region
    count: float
    pattern: Pattern
    footprint: float
    in_spm: bool = False
    shared_footprint: bool = False
    passes: int = 1
    writes: float = 0.0
    distinct_touches: float = math.inf
    fill_granule: int = 0


@dataclass
class PE:
    compute_ops: float = 0.0
    streams: Sequence[Stream] = ()
    spm_fill_words: float = 0.0
    trace: object = None


@dataclass
class Tile:
    pes: Sequence[PE]
    lcp_serial_elements: float = 0.0
    lcp_output_words: float = 0.0
    lcp_compute_ops: float = 0.0
    spm_fill_words: float = 0.0


#: A slot no stream uses: zero accesses, outside SPM.
_UNUSED = Stream(Region.MATRIX, 0.0, Pattern.SEQUENTIAL, 0.0)

_STREAM_FIELDS = (
    "region", "pattern", "count", "footprint", "writes", "passes", "in_spm",
    "shared_footprint", "distinct_touches", "fill_granule",
)


def pack(
    algorithm: str,
    mode: HWMode,
    tiles: Sequence[Tile],
    fixed_overhead_cycles: float = 0.0,
    meta: Optional[Dict[str, object]] = None,
) -> KernelProfile:
    """The columnar profile of ``tiles`` (every tile needs the same PE
    count; shorter stream lists are padded with unused slots)."""
    pes = [pe for t in tiles for pe in t.pes]
    shape = (len(tiles), len(tiles[0].pes))
    slots = max((len(pe.streams) for pe in pes), default=0)
    grid = [list(pe.streams) + [_UNUSED] * (slots - len(pe.streams)) for pe in pes]

    def column(name):
        return np.array(
            [[getattr(s, name) for s in row] for row in grid]
        ).reshape(shape + (slots,))

    traces = [pe.trace for pe in pes]
    return KernelProfile(
        algorithm=algorithm,
        mode=mode,
        **{name: column(name) for name in _STREAM_FIELDS},
        compute_ops=np.reshape([pe.compute_ops for pe in pes], shape),
        spm_fill_words=np.reshape([pe.spm_fill_words for pe in pes], shape),
        lcp_serial_elements=[t.lcp_serial_elements for t in tiles],
        lcp_output_words=[t.lcp_output_words for t in tiles],
        lcp_compute_ops=[t.lcp_compute_ops for t in tiles],
        tile_spm_fill_words=[t.spm_fill_words for t in tiles],
        fixed_overhead_cycles=fixed_overhead_cycles,
        meta=dict(meta or {}),
        traces=None if all(t is None for t in traces) else traces,
    )


def streams_of(profile: KernelProfile) -> List[List[List[SimpleNamespace]]]:
    """``[tile][pe][slot]`` stream records read from the columns."""
    columns = {name: getattr(profile, name).tolist() for name in _STREAM_FIELDS}
    T, P, S = profile.count.shape
    return [
        [
            [
                SimpleNamespace(
                    **{name: columns[name][t][p][s] for name in _STREAM_FIELDS}
                )
                for s in range(S)
            ]
            for p in range(P)
        ]
        for t in range(T)
    ]


# ----------------------------------------------------------------------
# The scalar reference model
# ----------------------------------------------------------------------
#: Fixed-point iterations for the insert-rate solve.
_FLUX_ITERATIONS = 4
#: Cycles a store occupies the pipeline (write-buffered).
_STORE_COST = 1.0


def _total(values) -> float:
    """Left-to-right sum (what ``sum`` does on CPython < 3.12)."""
    acc = 0
    for v in values:
        acc += v
    return acc


@dataclass
class _Entry:
    """One stream's view at a cache level (counts may be aggregated)."""

    region: int
    count: float
    footprint: float
    pattern: int
    passes: int
    cold_sharers: float = 1.0
    miss: float = 0.0  # solved


def _solve_level(entries: List[_Entry], capacity_words: float, params) -> None:
    """Fixed-point solve of per-entry miss counts at one cache level."""
    line = params.cache_line_words
    c_lines = max(capacity_words / line, 1e-9)
    total = _total(e.count for e in entries)
    if total <= 0:
        for e in entries:
            e.miss = 0.0
        return
    # Capacity shares among random/dependent entries (by access count).
    rand_total = _total(
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
        insert_rate = _total(e.miss for e in entries) / total
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


def _miss_bearing(stream) -> float:
    """Load accesses of a stream that can actually miss."""
    reads = max(stream.count - stream.writes, 0.0)
    if stream.distinct_touches != math.inf:
        reads = min(reads, stream.distinct_touches)
    return reads


def reference_evaluate(profile: KernelProfile, geom, params) -> RunReport:
    """Price ``profile`` stream by stream (the pre-columnar model)."""
    mode = profile.mode
    tiles = streams_of(profile)
    compute_ops = profile.compute_ops.tolist()
    pe_fills = profile.spm_fill_words.tolist()
    counters = MemCounters()
    tile_reports: List[TileReport] = []
    dram_seq = 0.0
    dram_rand = 0.0
    line = params.cache_line_words
    l1_base = l1_base_latency(mode, geom, params)
    spm_lat = spm_latency(mode, geom, params)
    l1_capacity = mode.l1_cache_words(geom, params)
    l2_capacity = mode.l2_words(geom, params)
    l1_shared = mode.l1_sharing is Sharing.SHARED
    l2_shared = mode.l2_sharing is Sharing.SHARED
    fill_rate = max(
        params.spm_fill_cycles_per_word,
        geom.tiles / params.dram_words_per_cycle,
    )

    # ---- Stage 1: L1 hit rates per tile ------------------------------
    staged: List[List[List[Tuple[object, float, float]]]] = []
    l2_entries: List[_Entry] = []  # aggregated per (tile, region)
    l2_entry_of: Dict[Tuple[int, int], _Entry] = {}
    for t_idx, tile in enumerate(tiles):
        per_pe: List[List[Tuple[object, float, float]]] = []
        if l1_shared:
            agg: Dict[int, _Entry] = {}
            for pe in tile:
                for s in pe:
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
                                len(tile) if s.shared_footprint else 1.0
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
            for pe in tile:
                rows = []
                for s in pe:
                    mb = _miss_bearing(s)
                    if s.in_spm or mb <= 0:
                        rows.append((s, 1.0, 0.0))
                        continue
                    h1 = rates.get(s.region, 1.0)
                    rows.append((s, h1, mb * (1.0 - h1)))
                per_pe.append(rows)
        else:
            for pe in tile:
                entries = []
                own = []
                for s in pe:
                    mb = _miss_bearing(s)
                    if s.in_spm or mb <= 0:
                        own.append((s, None))
                        continue
                    e = _Entry(s.region, mb, s.footprint, s.pattern, s.passes)
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
                key = (t_idx if not l2_shared else -1, s.region)
                e = l2_entry_of.get(key)
                if e is None:
                    e = _Entry(s.region, 0.0, 0.0, s.pattern, s.passes)
                    l2_entry_of[key] = e
                    l2_entries.append(e)
                e.count += m1
                # A shared region appears once per L2 scope; private
                # ones accumulate.
                if s.shared_footprint:
                    e.footprint = max(e.footprint, s.footprint)
                else:
                    e.footprint += s.footprint

    # ---- Stage 2: L2 solve --------------------------------------------
    if l2_shared:
        _solve_level(l2_entries, l2_capacity, params)
    else:
        for t_idx in range(len(tiles)):
            group = [e for (tt, _r), e in l2_entry_of.items() if tt == t_idx]
            _solve_level(group, l2_capacity, params)
    l2_rate: Dict[Tuple[int, int], float] = {}
    for key, e in l2_entry_of.items():
        l2_rate[key] = 1.0 - e.miss / e.count if e.count else 1.0

    # ---- Stage 3: latency composition ----------------------------------
    for t_idx, per_pe in enumerate(staged):
        tile_fill = float(profile.tile_spm_fill_words[t_idx])
        pe_cycles = []
        for p_idx, rows in enumerate(per_pe):
            cycles = compute_ops[t_idx][p_idx]
            counters.pe_ops += compute_ops[t_idx][p_idx]
            for s, h1, m1 in rows:
                if s.count <= 0:
                    continue
                if s.in_spm:
                    cycles += s.count * spm_lat
                    counters.spm_accesses += s.count
                    if mode is HWMode.SCS:
                        counters.xbar_hops += s.count
                    continue
                key = (t_idx if not l2_shared else -1, s.region)
                h2 = l2_rate.get(key, 1.0)
                lat = compose_latency(l1_base, h1, h2, s.pattern, params)
                mb = _miss_bearing(s)
                cheap_loads = max(s.count - s.writes - mb, 0.0)
                cycles += mb * lat + cheap_loads * l1_base + s.writes * _STORE_COST
                counters.l1_accesses += s.count
                counters.l1_hits += s.count - m1
                counters.l2_accesses += m1
                counters.l2_hits += h2 * m1
                m2 = m1 * (1.0 - h2)
                fill = m2 * (s.fill_granule if s.fill_granule else line)
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
        dram_rand += out_rows
        counters.dram_words += out_rows + output_words
        dram_seq += output_words
        if tile_fill:
            counters.dram_words += tile_fill
            counters.spm_accesses += tile_fill
            dram_seq += tile_fill
        tile_reports.append(TileReport(pe_cycles=pe_cycles, lcp_cycles=lcp_cycles))

    compute_cycles = max(t.cycles for t in tile_reports)
    bw_cycles = (
        dram_seq / params.dram_words_per_cycle
        + dram_rand / (params.dram_words_per_cycle * params.dram_random_efficiency)
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
