"""Set-associative LRU cache simulation for trace replay.

Models Table II RCache banks in CACHE mode — each 4 kB, 4-way set
associative, 64 B (16-word) blocks, LRU replacement — and the banked
arrangements the four hardware configurations build out of them.  The
simulator is functional (it tracks tags, not data) and word-granular on
the request side, line-granular on the fill side, exactly like the paper's
hardware.

:class:`BankedCache` is the one simulator.  Its state is a dense
``(n_sets, ways)`` tag matrix ordered oldest-to-newest per set; whole
address arrays are replayed at once by reformulating LRU as a
reuse-distance problem (access *i* with previous same-line occurrence
*p* hits iff fewer than ``ways`` distinct lines of its set intervene),
resolved with two packed integer sorts, a cumulative first-occurrence
counter, and short chunked scans for the few undecided windows.

The trace fidelity mode (:class:`~repro.hardware.trace.TraceEngine`)
is the one caller that replays traces.  The per-word
``OrderedDict`` simulator in ``tests/hardware/reference_cache.py`` is
the oracle: ``tests/hardware/test_cache_differential.py`` holds hit
masks, counters and end state bit-identical to it for any split of a
trace into batches.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs.tracer import active as _obs_active
from ..perf import counters as _perf
from .params import HardwareParams

__all__ = ["BankedCache", "interleave_round_robin"]


class BankedCache:
    """``n_banks`` LRU cache banks (Table II: 4 kB, 4-way) simulated as one.

    For hit-rate purposes a group of banks behind one shared crossbar
    behaves as one cache of the aggregate capacity with word-level bank
    interleaving, so the group is simulated as a single cache with
    ``n_banks`` times one bank's sets; a private bank is a group of one.
    Bank conflicts are not simulated: arbitration is priced by
    :func:`~repro.hardware.latency.shared_conflict_cycles`.

    State is a ``(n_sets, ways)`` tag matrix (``-1`` = empty way, oldest
    way in column 0) plus a matching dirty matrix.  It carries over from
    one :meth:`run_trace` batch to the next, so a trace replays the same
    however it is split into batches.
    """

    def __init__(self, n_banks: int, params: HardwareParams):
        if n_banks <= 0:
            raise SimulationError("need at least one bank")
        self.n_banks = n_banks
        self.params = params
        self.line_words = params.cache_line_words
        self.ways = params.cache_ways
        self.n_sets = n_banks * params.cache_sets_per_bank
        if self.n_sets <= 0:
            raise SimulationError("cache must have at least one set")
        self._tags = np.full((self.n_sets, self.ways), -1, dtype=np.int64)
        self._dirty = np.zeros((self.n_sets, self.ways), dtype=np.uint8)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    @property
    def capacity_words(self) -> int:
        """Total words the group can hold."""
        return self.n_sets * self.ways * self.line_words

    def reset_lines(self) -> None:
        """Invalidate all lines but keep counters (reconfiguration flush)."""
        self._tags.fill(-1)
        self._dirty.fill(0)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (1.0 when idle)."""
        return self.hits / self.accesses if self.accesses else 1.0

    # ------------------------------------------------------------------
    def run_trace(self, addrs: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Replay a word-address trace in one batch; return its hit mask.

        The caller aggregates the mask per stream (``np.add.at``) and
        forwards the missing addresses to the next memory level.
        """
        tracer = _obs_active()
        if not tracer.enabled:
            return self._replay(addrs, writes)
        with tracer.span(
            "cache.run_trace", n_banks=self.n_banks, accesses=len(addrs)
        ) as sp:
            mask = self._replay(addrs, writes)
            sp.set(hits=int(mask.sum()))
            return mask

    def _replay(self, addrs, writes) -> np.ndarray:
        """Batched LRU replay via the reuse-distance formulation.

        Access *i* (previous same-line occurrence *p*, positions in
        set-grouped order) hits iff ``|{j in (p,i): f_j <= p}| < ways``
        where ``f_j`` is *j*'s own previous-occurrence pointer (-1 when
        none): every distinct line between the two touches contributes
        exactly one such *j*, its first occurrence after *p*.  The same
        count over ``(q, set_end)`` decides whether a line last touched
        at *q* survives the batch.  A cumulative counter of
        first-occurrences lower-bounds the count and settles most
        queries in two gathers; the remainder get exact chunked scans.
        """
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        n = len(addrs)
        _perf.trace_accesses += n
        if n == 0:
            return np.zeros(0, dtype=bool)
        writes = np.asarray(writes)
        W = self.ways
        nsets = self.n_sets
        lw = self.line_words
        if lw & (lw - 1) == 0:
            lines = addrs >> (int(lw).bit_length() - 1)
        else:
            lines = addrs // lw
        pow2 = nsets & (nsets - 1) == 0
        if pow2:
            sets = (lines & (nsets - 1)).astype(np.int32)
        else:
            sets = (lines % nsets).astype(np.int32)

        # Current residents become an uncounted synthetic prefix: they
        # replay ahead of the batch (set-major, oldest to newest) so one
        # formulation covers warm state, hits, evictions and the end
        # state alike.  Synthetic rows have no previous occurrence, so
        # they can never count as hits below.
        rs, rc = np.nonzero(self._tags != -1)
        S = len(rs)
        if S:
            ext_lines = np.concatenate([self._tags[rs, rc], lines])
            ext_sets = np.concatenate([rs.astype(np.int32), sets])
            ext_wr = np.concatenate(
                [self._dirty[rs, rc].astype(bool), writes.astype(bool)]
            )
        else:
            ext_lines, ext_sets, ext_wr = lines, sets, writes
        N = S + n

        pbits = int(N).bit_length()
        sbits = int(nsets - 1).bit_length()
        idx32 = np.arange(N, dtype=np.int32)

        # Sort 1: group by set, stable in arrival order.  Packing
        # (set, position) into one int32 makes this a primitive sort.
        if sbits + pbits <= 31:
            sk = np.sort((ext_sets << np.int32(pbits)) | idx32)
            order = sk & np.int32((1 << pbits) - 1)
            so = sk >> np.int32(pbits)
        else:
            order = np.argsort(ext_sets, kind="stable").astype(np.int64)
            so = ext_sets[order]
        L = ext_lines[order]

        counts = np.bincount(so, minlength=nsets)
        csum = np.zeros(nsets + 1, dtype=np.int32)
        np.cumsum(counts, out=csum[1:])
        seg_end = csum[1:]  # one-past-last position, per set

        # Sort 2: group by line, ordered by set-grouped position.
        lmax = int(L.max())
        base = csum[so]
        loc = idx32 - base
        lbits = int(loc.max()).bit_length() if N else 0
        if lmax.bit_length() + lbits <= 31:
            ks = np.sort((L.astype(np.int32) << np.int32(lbits)) | loc)
            line_k = ks >> np.int32(lbits)
            if pow2:
                set_k = line_k & np.int32(nsets - 1)
            else:
                set_k = line_k % np.int32(nsets)
            pos_k = csum[set_k] + (ks & np.int32((1 << lbits) - 1))
        elif lmax.bit_length() + pbits <= 62:
            ks = np.sort((L << np.int64(pbits)) | idx32.astype(np.int64))
            line_k = ks >> np.int64(pbits)
            pos_k = (ks & np.int64((1 << pbits) - 1)).astype(np.int32)
        else:  # astronomically wide tags: lexsort fallback
            o2 = np.lexsort((idx32, L))
            line_k = L[o2]
            pos_k = idx32[o2]
        same = line_k[1:] == line_k[:-1]

        # Previous same-line occurrence per set-grouped position.
        p = np.full(N, -1, dtype=np.int32)
        sel = np.nonzero(same)[0]
        p[pos_k[sel + 1]] = pos_k[sel]

        # Hit resolution: a window shorter than the associativity is a
        # guaranteed hit; otherwise lower-bound, then scan the leftovers.
        thr = idx32 - np.int32(W)
        np.maximum(thr, 0, out=thr)
        hitv = p >= thr
        fo = np.cumsum(p == np.int32(-1), dtype=np.int32)  # first occurrences
        qi = np.nonzero((~hitv) & (p >= 0))[0]
        if len(qi):
            pq = p[qi]
            lb = fo[qi - 1] - fo[pq]
            sub = np.nonzero(lb < W)[0]
            if len(sub):
                qs = qi[sub].astype(np.int32)
                got = _exact_window_lt(p, pq[sub], qs, W, N)
                hitv[qs[got]] = True

        nh = int(np.count_nonzero(hitv))  # synthetic rows never hit
        self.hits += nh
        self.misses += n - nh

        # Writebacks: every miss opens a new residency generation of its
        # line; a generation is dirty when any access in it writes, and
        # writes back iff the generation ends (by eviction or by a later
        # generation of the same line) before the batch does.
        miss_k = ~hitv[pos_k]
        g1 = np.cumsum(miss_k, dtype=np.int32)  # 1-based generation ids
        n_gens = int(g1[-1])
        gd = np.zeros(n_gens + 1, dtype=bool)
        wsel = np.nonzero(ext_wr[order[pos_k]])[0]
        gd[g1[wsel]] = True

        grp_last = np.nonzero(np.append(~same, True))[0]
        last_pos = pos_k[grp_last]
        last_g = g1[grp_last]
        line_g = line_k[grp_last]
        if pow2:
            set_g = (line_g & (nsets - 1)).astype(np.int32)
        else:
            set_g = (line_g % nsets).astype(np.int32)
        e2 = seg_end[set_g]
        lb2 = fo[e2 - 1] - fo[last_pos]
        still = np.zeros(len(grp_last), dtype=bool)
        sub2 = np.nonzero(lb2 < W)[0]
        if len(sub2):
            still[sub2] = _exact_window_lt(p, last_pos[sub2], e2[sub2], W, N)
        rsel = np.nonzero(still)[0]
        self.writebacks += int(np.count_nonzero(gd)) - int(
            np.count_nonzero(gd[last_g[rsel]])
        )

        # End state: survivors re-packed oldest-first per set.
        r_lines = line_g[rsel]
        r_pos = last_pos[rsel]
        r_dirty = gd[last_g[rsel]]
        if pow2:
            r_sets = r_lines & (nsets - 1)
        else:
            r_sets = r_lines % nsets
        o3 = np.argsort(r_sets.astype(np.int64) * N + r_pos, kind="stable")
        r_lines, r_dirty, r_sets = r_lines[o3], r_dirty[o3], r_sets[o3]
        cols = np.arange(len(r_sets)) - np.concatenate(
            [[0], np.cumsum(np.bincount(r_sets, minlength=nsets))]
        )[r_sets]
        self._tags.fill(-1)
        self._dirty.fill(0)
        self._tags[r_sets, cols] = r_lines
        self._dirty[r_sets, cols] = r_dirty

        out = np.empty(n, dtype=bool)
        if S:
            rl = np.nonzero(order >= S)[0]
            out[order[rl] - S] = hitv[rl]
        else:
            out[order] = hitv
        return out


def _exact_window_lt(f, s, e, W, n_total):
    """Per query: is ``|{j in (s[q], e[q]) : f[j] <= s[q]}| < W``?

    Chunked scan with geometric growth: most undecided windows resolve
    within a few dozen elements, so the first chunks are small and only
    stubborn queries pay for long gathers.
    """
    Q = len(s)
    res = np.zeros(Q, dtype=bool)
    cnt = np.zeros(Q, dtype=np.int32)
    idx = np.arange(Q)
    scanned = 0
    K = 8
    while len(idx):
        si = s[idx]
        ei = e[idx]
        gi = (si + np.int32(1 + scanned))[:, None] + np.arange(K, dtype=np.int32)
        valid = gi < ei[:, None]
        np.minimum(gi, np.int32(n_total - 1), out=gi)
        cnt[idx] += ((f[gi] <= si[:, None]) & valid).sum(axis=1, dtype=np.int32)
        scanned += K
        over = cnt[idx] >= W
        covered = (si + np.int32(1 + scanned)) >= ei
        under_now = covered & ~over
        res[idx[under_now]] = True
        idx = idx[~(over | under_now)]
        K = min(K * 4, 4096)
    return res


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
