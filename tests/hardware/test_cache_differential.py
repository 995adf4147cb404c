"""Differential tests: the batched cache engine vs the reference simulator.

:class:`BankedCache` must be *bit-identical* to :class:`ReferenceCacheBank`
— same per-access hit masks, same hit/miss/writeback counters, same end
state (lines oldest first per set, with their dirty flags) after every
batch, across ``reset_lines`` and any split of a trace into batches — on
random traces with mixed reads/writes over several bank counts and
footprints.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import BankedCache
from repro.hardware.params import DEFAULT_PARAMS

from .reference_cache import ReferenceCacheBank

SETS_PER_BANK = DEFAULT_PARAMS.cache_sets_per_bank
LINE_WORDS = DEFAULT_PARAMS.cache_line_words


def reference_for(n_banks):
    sets = n_banks * SETS_PER_BANK
    return ReferenceCacheBank(DEFAULT_PARAMS, sets_override=sets)


def counters(cache):
    return (cache.hits, cache.misses, cache.writebacks)


def assert_same_state(ref, vec):
    """The reference's per-set ``OrderedDict`` (oldest first, values are
    dirty flags) equals the engine's ``_tags``/``_dirty`` rows, whose
    unused ways hold tag -1 and a clean flag."""
    tags = np.full((ref.n_sets, ref.ways), -1, dtype=np.int64)
    dirty = np.zeros((ref.n_sets, ref.ways), dtype=bool)
    for s, lines in enumerate(ref._sets):
        tags[s, : len(lines)] = list(lines)
        dirty[s, : len(lines)] = list(lines.values())
    np.testing.assert_array_equal(vec._tags, tags)
    np.testing.assert_array_equal(vec._dirty.astype(bool), dirty)


def replay_both(ref, vec, addrs, writes):
    """One batch through both caches: masks, counters and state agree."""
    m_vec = vec.run_trace(addrs, writes)
    np.testing.assert_array_equal(ref.run_trace(addrs, writes), m_vec)
    assert counters(ref) == counters(vec)
    assert_same_state(ref, vec)
    return m_vec


def random_trace(rng, n, footprint, write_fraction=0.3):
    addrs = rng.integers(0, footprint, n).astype(np.int64)
    writes = rng.random(n) < write_fraction
    return addrs, writes


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "n_banks,footprint",
        [
            (1, 8_000),        # single bank, moderate reuse
            (1, 300),          # pathological same-set reuse
            (64, 65_536),      # 64-bank shared cache (1024 sets)
        ],
    )
    def test_masks_and_counters_identical(self, seed, n_banks, footprint):
        rng = np.random.default_rng(seed)
        ref = reference_for(n_banks)
        vec = BankedCache(n_banks, DEFAULT_PARAMS)
        for _ in range(3):  # warm state carries across batches
            replay_both(ref, vec, *random_trace(rng, 1500, footprint))

    @pytest.mark.parametrize("n_banks", [1, 2, 4, 16])
    def test_banked_cache_all_bank_counts(self, n_banks):
        rng = np.random.default_rng(7)
        ref = reference_for(n_banks)
        banked = BankedCache(n_banks, DEFAULT_PARAMS)
        addrs, writes = random_trace(rng, 4000, 4 * banked.capacity_words)
        replay_both(ref, banked, addrs, writes)

    def test_reset_lines_mid_stream(self):
        rng = np.random.default_rng(3)
        ref = reference_for(1)
        vec = BankedCache(1, DEFAULT_PARAMS)
        replay_both(ref, vec, *random_trace(rng, 1000, 3000))
        ref.reset_lines()
        vec.reset_lines()
        assert counters(ref) == counters(vec)  # flush keeps counters
        assert_same_state(ref, vec)
        replay_both(ref, vec, *random_trace(rng, 1000, 3000))

    def test_trace_engine_style_addresses(self):
        """Region-relocated addresses (offsets + k * 2^40) — the address
        shape the TraceEngine feeds through the shared caches."""
        rng = np.random.default_rng(5)
        ref = reference_for(16)
        vec = BankedCache(16, DEFAULT_PARAMS)
        region = rng.integers(0, 4, 3000).astype(np.int64)
        addrs = region * (1 << 40) + rng.integers(0, 20_000, 3000)
        writes = rng.random(3000) < 0.4
        replay_both(ref, vec, addrs, writes)

    def test_write_only_and_read_only_extremes(self):
        rng = np.random.default_rng(13)
        for wf in (0.0, 1.0):
            ref = reference_for(2)
            vec = BankedCache(2, DEFAULT_PARAMS)
            addrs, writes = random_trace(rng, 2000, 6000, write_fraction=wf)
            replay_both(ref, vec, addrs, writes)
            if wf == 0.0:
                assert vec.writebacks == 0  # clean lines never write back


@st.composite
def split_traces(draw):
    """A bank count, a trace, its batch cuts and where a flush falls.

    Half the addresses crowd eight lines into each of three sets, so
    evictions and writebacks happen at every bank count; the rest spread
    over eight times the capacity.  Repeated cuts make empty batches.
    """
    n_banks = draw(st.sampled_from([1, 2, 4, 16]))
    n_sets = n_banks * SETS_PER_BANK
    crowded = st.builds(
        lambda tag, s, word: (tag * n_sets + s) * LINE_WORDS + word,
        st.integers(0, 7),
        st.integers(0, 2),
        st.integers(0, LINE_WORDS - 1),
    )
    capacity = n_sets * DEFAULT_PARAMS.cache_ways * LINE_WORDS
    spread = st.integers(0, 8 * capacity)
    access = st.tuples(st.one_of(crowded, spread), st.booleans())
    trace = draw(st.lists(access, max_size=300))
    cuts = sorted(draw(st.lists(st.integers(0, len(trace)), max_size=12)))
    flush_before = draw(st.none() | st.integers(0, len(cuts)))
    return n_banks, trace, cuts, flush_before


class TestBatchSplits:
    @given(split_traces())
    @settings(max_examples=150, deadline=None)
    def test_any_split_matches_reference(self, case):
        n_banks, trace, cuts, flush_before = case
        addrs = np.array([a for a, _ in trace], dtype=np.int64)
        writes = np.array([w for _, w in trace], dtype=bool)
        ref = reference_for(n_banks)
        vec = BankedCache(n_banks, DEFAULT_PARAMS)
        bounds = [0, *cuts, len(trace)]
        for batch, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if batch == flush_before:
                ref.reset_lines()
                vec.reset_lines()
            mask = replay_both(ref, vec, addrs[lo:hi], writes[lo:hi])
            assert mask.dtype == bool and len(mask) == hi - lo
        assert vec.hits + vec.misses == len(trace)
        assert 0.0 <= vec.hit_rate <= 1.0
