"""Closed-form performance estimation: the system's hardware model.

The paper evaluates systems up to 8x16 in gem5 and switches to "a
trace-based simulation model" beyond that because detailed simulation
becomes prohibitive (Section IV-A).  This module is the analogous fast
model, and the only one the system ships: it prices kernel profiles
(:class:`~repro.hardware.profile.KernelProfile`) without replaying
addresses, using a reuse-distance cache model, and it prices the
profiles' columns with array operations — every PE (or tile) at once —
rather than stream by stream.

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

All caches of a level are solved at once: one per PE (private L1, the
PE's streams as entries), per tile (shared L1, private L2) or one for
the system (shared L2), whose entries are regions in first-appearance
order.  Sums run left to right in the order a stream-by-stream walk adds
its terms and ``exp`` is ``math.exp``, so prices are bit-identical to
pricing each stream in turn.

One call prices a list of profiles that share a mode and a ``(tiles,
PEs, streams)`` shape — a sweep row's densities, a batch group's
columns — in one stacked solve.  B profiles of T tiles stack along the
tile axis into B*T tiles, so per-PE and per-tile caches are just more
rows, and a shared L2 becomes one row per profile.  Each row's solve
reads only its own entries (the fixed point runs a fixed number of
iterations, so no row waits on another's convergence), and each
profile's counters, tile reports, slowest tile, bandwidth floor and
fixed overhead reduce over its own slice in the order above: every
report equals pricing its profile alone.  A solve costs numpy call
overhead more than work, so a row of five costs well under five lone
solves.  A one-profile list runs the same code on the profile's own
arrays, uncopied.

Latency composition is shared with the trace-replay oracle in
``tests/hardware/trace_oracle.py`` (:mod:`repro.hardware.latency`): hits
cost the issue slot plus unhideable crossbar serialisation; miss latency
is discounted by the pattern's hide fraction (prefetchable stream /
independent gather / pointer chase).  A PE's cycles are ops plus access
latencies; a tile finishes with its slowest PE plus the LCP's serial
tail (OP's merge and its dependent read-modify-write of output rows —
the term that keeps OP from scaling with PEs per tile); the system
finishes with the slowest tile unless the HBM bandwidth floor is higher.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..perf import counters as _perf
from .geometry import Geometry
from .hwconfig import HWMode, Sharing
from .latency import compose_latency, l1_base_latency, spm_latency
from .params import HardwareParams
from .profile import _COLUMNS, KernelProfile, Pattern
from .stats import MemCounters, RunReport, TileReport

__all__ = ["AnalyticModel"]

#: Fixed-point iterations for the insert-rate solve.
_FLUX_ITERATIONS = 4
#: Cycles a store occupies the pipeline (write-buffered).
_STORE_COST = 1.0
#: Rows of the per-tile accumulator holding terms at all three levels.
_SPM, _DRAM, _DRAM_SEQ, _DRAM_RAND = 0, 5, 6, 7


def _seq_sum(x: np.ndarray) -> np.ndarray:
    """Left-to-right sums along the last axis (``np.sum`` adds pairwise)."""
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1]


def _miss_bearing(count, writes, distinct_touches):
    """Load accesses of each stream that can actually miss.

    Stores retire through the write buffer; beyond ``distinct_touches``
    the remaining loads are register-run re-touches that hit by
    construction.
    """
    return np.minimum(np.maximum(count - writes, 0.0), distinct_touches)


def _solve_misses(
    count, footprint, sequential, passes, cold_sharers, capacity_words, params
) -> np.ndarray:
    """Fixed-point solve of miss counts: one cache per row, one entry per
    column, every argument shaped ``(caches, entries)``.

    A zero-count entry misses nothing and adds nothing to any sum, so
    rows may be padded with them.
    """
    line = params.cache_line_words
    c_lines = max(capacity_words / line, 1e-9)
    total = _seq_sum(count)
    live = count > 0
    fp_lines = footprint / line
    cold = np.minimum(count, fp_lines / np.maximum(cold_sharers, 1.0))
    every_pass = np.minimum(count, cold * passes)
    # Initial guess: streams miss once per line, random misses everything.
    miss = np.where(sequential, every_pass, count)
    # From the first iteration on, a stream's later passes hit when its
    # footprint fits in half the cache.
    settled = np.where(
        (passes > 1) & (fp_lines <= 0.5 * c_lines),
        np.minimum(count, cold),
        every_pass,
    )
    # Random entries, compacted: only they depend on the insert rate.
    rows, cols = np.nonzero(live & ~sequential)
    n, cold = count[rows, cols], cold[rows, cols]
    slack = np.maximum(n - cold, 0.0)
    fp_lines = np.maximum(fp_lines[rows, cols], 1e-9)
    rand_total = _seq_sum(np.where(sequential, 0.0, count))[rows]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        interval = total[rows] * fp_lines / n
        h_cap = np.maximum(np.minimum(1.0, c_lines * (n / rand_total) / fp_lines), 0.0)
        for step in range(_FLUX_ITERATIONS):
            k = (_seq_sum(miss) / total)[rows] * interval
            if not step:
                miss = np.where(sequential, settled, miss)
            # math.exp per element: np.exp differs in the last bit on
            # some inputs.  Survival is certain unless k > 0.
            survive = np.fromiter(map(math.exp, (-c_lines / k).tolist()), float, len(k))
            h = np.minimum(np.where(k > 0, 1.0 - survive, 1.0), h_cap)
            miss[rows, cols] = np.minimum(n, cold + slack * (1.0 - h))
    return miss


class _RegionGroups:
    """Each cache's eligible streams grouped by region, for the levels
    whose entries are regions.  Inputs are ``(caches, streams)`` in
    program order; groups enter the solve in the order their regions
    first appear."""

    def __init__(self, region: np.ndarray, eligible: np.ndarray):
        self.region = region
        self.caches = np.arange(len(region))[:, None]
        self.member = eligible[:, None, :] & (
            region[:, None, :] == np.arange(int(region.max()) + 1)[:, None]
        )
        self.first = self.member.argmax(axis=2)
        present = self.member.any(axis=2)
        self.order = self.caches, np.argsort(
            np.where(present, self.first, self.first.max() + 1),
            axis=1,
            kind="stable",
        )

    def total(self, x: np.ndarray, keep=True) -> np.ndarray:
        """Each group's left-to-right sum of ``x`` (where ``keep``)."""
        return _seq_sum(np.where(self.member & keep, x[:, None, :], 0.0))

    def of_first(self, x: np.ndarray) -> np.ndarray:
        """``x`` of each group's first stream."""
        return x[self.caches, self.first]

    def hit_rates(self, count, footprint, passes, cold_sharers, sequential,
                  capacity_words, params) -> np.ndarray:
        """Solve the groups as cache entries; each stream's group hit rate."""
        order = self.order
        miss = np.empty(count.shape)
        miss[order] = _solve_misses(
            count[order], footprint[order], self.of_first(sequential)[order],
            passes[order], cold_sharers[order], capacity_words, params,
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(count > 0, 1.0 - miss / count, 1.0)
        return rates[self.caches, self.region]


def _check_stackable(profiles: Sequence[KernelProfile]) -> None:
    """Raise :class:`ConfigurationError` unless every profile shares the
    first one's mode and ``(tiles, PEs, streams)`` shape: one solve
    prices one cache organisation over one layout."""
    if not profiles:
        return
    mode, shape = profiles[0].mode, profiles[0].count.shape
    for profile in profiles[1:]:
        if profile.mode is not mode or profile.count.shape != shape:
            raise ConfigurationError(
                "one solve prices profiles of one mode and shape, not "
                f"{mode.label} {shape} beside "
                f"{profile.mode.label} {profile.count.shape}"
            )


def _stack(profiles: Sequence[KernelProfile]):
    """The profiles' columns stacked along the tile axis.  A lone
    profile is its own stack, so its columns are not copied."""
    if len(profiles) == 1:
        return profiles[0]
    return SimpleNamespace(**{
        name: np.concatenate([getattr(p, name) for p in profiles])
        for _axes, columns in _COLUMNS
        for name in columns
    })


class AnalyticModel:
    """Prices kernel profiles on a given geometry/parameter set."""

    def __init__(self, geometry: Geometry, params: HardwareParams):
        self.geometry = geometry
        self.params = params

    # ------------------------------------------------------------------
    def evaluate(self, profiles: Sequence[KernelProfile]) -> List[RunReport]:
        """Price kernel invocations of one mode and shape in one solve;
        returns each one's cycles + counters, in order."""
        if not profiles:
            return []
        _check_stackable(profiles)
        geom, params, mode = self.geometry, self.params, profiles[0].mode
        B = len(profiles)
        T, P, S = profiles[0].count.shape
        _perf.pricing_solves += 1
        _perf.pricing_profiles += B
        # B profiles of T tiles are one stack of B*T tiles.
        cols = _stack(profiles)
        shape = (B * T, P, S)
        count, writes, in_spm = cols.count, cols.writes, cols.in_spm
        sequential = cols.pattern == Pattern.SEQUENTIAL
        mb = _miss_bearing(count, writes, cols.distinct_touches)
        cached = ~in_spm & (mb > 0)
        l1_base = l1_base_latency(mode, geom, params)
        l1_shared = mode.l1_sharing is Sharing.SHARED
        l1_capacity = mode.l1_cache_words(geom, params)

        # ---- Stage 1: L1 hit rates ------------------------------------
        if not l1_shared:
            # One cache per PE; its entries are the PE's streams.
            flat = (B * T * P, S)
            miss = _solve_misses(
                np.where(cached, mb, 0.0).reshape(flat),
                cols.footprint.reshape(flat),
                sequential.reshape(flat),
                cols.passes.reshape(flat),
                np.ones(flat),
                l1_capacity,
                params,
            ).reshape(shape)
            with np.errstate(divide="ignore", invalid="ignore"):
                h1 = np.where(cached, 1.0 - miss / mb, 1.0)
            m1 = np.where(cached, miss, 0.0)
        else:
            # One cache per tile; its entries are the tile's regions, each
            # with the first stream's footprint plus every later private
            # one, and the most passes any stream makes.
            h1 = np.ones(shape)
            if cached.any():
                grid = (B * T, P * S)
                groups = _RegionGroups(
                    cols.region.reshape(grid), cached.reshape(grid)
                )
                shared_fp = cols.shared_footprint.reshape(grid)
                later = np.arange(P * S) != groups.first[..., None]
                passes = np.where(
                    groups.member,
                    cols.passes.reshape(grid)[:, None, :],
                    np.iinfo(np.int64).min,
                )
                h1 = groups.hit_rates(
                    groups.total(mb.reshape(grid)),
                    groups.total(
                        cols.footprint.reshape(grid),
                        ~(later & shared_fp[:, None, :]),
                    ),
                    passes.max(axis=2),
                    np.where(groups.of_first(shared_fp), float(P), 1.0),
                    sequential.reshape(grid),
                    l1_capacity,
                    params,
                )
                h1 = np.where(cached, h1.reshape(shape), 1.0)
            m1 = np.where(cached, mb * (1.0 - h1), 0.0)

        # ---- Stage 2: L2 hit rates --------------------------------------
        # L1 misses aggregate per (L2 scope, region): the profile's whole
        # system when L2 is shared, else the tile.  Each entry takes its
        # first stream's pattern and passes.
        h2 = np.ones(shape)
        reaching = ~in_spm & (m1 > 0)
        if reaching.any():
            shared_l2 = mode.l2_sharing is Sharing.SHARED
            grid = (B, -1) if shared_l2 else (B * T, P * S)
            groups = _RegionGroups(cols.region.reshape(grid), reaching.reshape(grid))
            h2 = groups.hit_rates(
                groups.total(m1.reshape(grid)),
                _l2_footprints(
                    groups.member,
                    cols.shared_footprint.reshape(grid)[:, None, :],
                    cols.footprint.reshape(grid)[:, None, :],
                ),
                groups.of_first(cols.passes.reshape(grid)),
                np.ones(groups.first.shape),
                sequential.reshape(grid),
                mode.l2_words(geom, params),
                params,
            ).reshape(shape)

        # ---- Stage 3: latency composition --------------------------------
        live = count > 0
        spm = live & in_spm
        path = live & ~in_spm
        lat = compose_latency(l1_base, h1, h2, cols.pattern, params)
        cheap_loads = np.maximum(count - writes - mb, 0.0)
        stream_cycles = np.where(
            spm,
            count * spm_latency(mode, geom, params),
            np.where(
                path,
                mb * lat + cheap_loads * l1_base + writes * _STORE_COST,
                0.0,
            ),
        )
        fill_rate = max(
            params.spm_fill_cycles_per_word,
            geom.tiles / params.dram_words_per_cycle,
        )
        visible_fill = fill_rate * (1.0 - params.spm_fill_overlap)
        pe_cycles = cols.compute_ops
        for s in range(S):
            pe_cycles = pe_cycles + stream_cycles[:, :, s]
        # Shared-SPM fill: PEs wait out the un-overlapped part.
        pe_cycles = (
            pe_cycles
            + cols.spm_fill_words * visible_fill
            + cols.tile_spm_fill_words[:, None] * visible_fill
        )

        # ---- Counters, accumulated in program order -----------------------
        # Per tile: each PE's streams, then its SPM fill; after the PEs,
        # the LCP tail and the shared-SPM fill.  Each profile sums its
        # own tiles.
        m2 = m1 * (1.0 - h2)
        granule = cols.fill_granule
        fill = m2 * np.where(granule != 0, granule, params.cache_line_words)
        # Read-modify-write streams dirty the lines they fetched; the
        # eventual write-back doubles the fill traffic.
        traffic = np.where(path, np.where(writes > 0, fill + fill, fill), 0.0)
        acc = np.zeros((8, B * T, P * (S + 1) + 2))
        per_pe = acc[:, :, :-2].reshape(8, B * T, P, S + 1)
        for row, term in enumerate(
            (
                np.where(spm, count, 0.0),
                np.where(path, count, 0.0),
                np.where(path, count - m1, 0.0),
                m1,
                h2 * m1,
                traffic,
                np.where(sequential, traffic, 0.0),
                np.where(sequential, 0.0, traffic),
            )
        ):
            per_pe[row, ..., :S] = term
        per_pe[[_SPM, _DRAM, _DRAM_SEQ], ..., S] = cols.spm_fill_words
        out_rows = cols.lcp_output_words / 2.0  # (index, value) pairs
        # RMW traffic: read the old row value, write the new one.
        acc[_DRAM, :, -2] = out_rows + cols.lcp_output_words
        acc[_DRAM_SEQ, :, -2] = cols.lcp_output_words
        acc[_DRAM_RAND, :, -2] = out_rows
        acc[[_DRAM, _SPM, _DRAM_SEQ], :, -1] = cols.tile_spm_fill_words
        sums = _seq_sum(acc.reshape(8, B, -1)).T.tolist()
        # Crossbar hops: the shared SPM and shared L1 carry every access,
        # then every L1 miss crosses to L2.
        hops = (spm if mode is HWMode.SCS else False) | (path if l1_shared else False)
        xbar = _seq_sum(
            np.stack([np.where(hops, count, 0.0), m1], axis=-1).reshape(B, -1)
        ).tolist()
        pe_ops = _seq_sum(cols.compute_ops.reshape(B, -1)).tolist()
        lcp_ops = _seq_sum(
            (cols.lcp_serial_elements * 4 + cols.lcp_compute_ops).reshape(B, T)
        ).tolist()

        # ---- LCP serial tail and each profile's verdict -------------------
        lcp_cycles = (
            cols.lcp_serial_elements * params.lcp_cycles_per_element
            + out_rows * params.lcp_rmw_cycles_per_row
            + cols.lcp_compute_ops
        ).tolist()
        pe_cycles = pe_cycles.tolist()
        reports = []
        for b, profile in enumerate(profiles):
            tile_reports = [
                TileReport(pe_cycles=row, lcp_cycles=lcp)
                for row, lcp in zip(
                    pe_cycles[b * T:(b + 1) * T], lcp_cycles[b * T:(b + 1) * T]
                )
            ]
            compute_cycles = max(t.cycles for t in tile_reports)
            spm_acc, l1a, l1h, l2a, l2h, dram, dram_seq, dram_rand = sums[b]
            bw_cycles = (
                dram_seq / params.dram_words_per_cycle
                + dram_rand
                / (params.dram_words_per_cycle * params.dram_random_efficiency)
            )
            total = max(compute_cycles, bw_cycles) + profile.fixed_overhead_cycles
            reports.append(RunReport(
                cycles=total,
                counters=MemCounters(
                    pe_ops=pe_ops[b],
                    lcp_ops=lcp_ops[b],
                    spm_accesses=spm_acc,
                    l1_accesses=l1a,
                    l1_hits=l1h,
                    l2_accesses=l2a,
                    l2_hits=l2h,
                    dram_words=dram,
                    xbar_hops=xbar[b],
                ),
                tile_reports=tile_reports,
                bandwidth_floor_cycles=bw_cycles,
                clock_hz=params.clock_hz,
                detail={
                    "compute_cycles": compute_cycles,
                    "mode": mode.label,
                    "algorithm": profile.algorithm,
                },
            ))
        return reports


def _l2_footprints(member, shared, footprint) -> np.ndarray:
    """Each L2 entry's footprint: a shared region counts once per scope
    (its largest), private ones accumulate — folded in program order."""
    private = member & ~shared
    fp = _seq_sum(np.where(private, footprint, 0.0))
    peaks = member & shared
    if not peaks.any():
        return fp
    fp = np.maximum(fp, np.where(peaks, footprint, 0.0).max(axis=2))
    # A group mixing both kinds depends on their order: fold it exactly.
    for g, r in zip(*np.nonzero(private.any(axis=2) & peaks.any(axis=2))):
        acc = 0.0
        for i in np.flatnonzero(member[g, r]).tolist():
            f = float(footprint[g, 0, i])
            acc = max(acc, f) if shared[g, 0, i] else acc + f
        fp[g, r] = acc
    return fp
