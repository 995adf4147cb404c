"""Set-associative LRU cache simulator tests."""

import numpy as np
import pytest

from repro.hardware import DEFAULT_PARAMS
from repro.hardware.cache import BankedCache, interleave_round_robin


def access(cache, word_addr, write=False):
    """Look up one word through a one-element batch; True on hit."""
    mask = cache.run_trace(
        np.array([word_addr], dtype=np.int64), np.array([write])
    )
    return bool(mask[0])


class TestCacheBank:
    """One 4 kB bank: ``BankedCache(1, params)``."""

    def test_cold_miss_then_hit(self):
        c = BankedCache(1, DEFAULT_PARAMS)
        assert not access(c, 0)
        assert access(c, 0)
        assert access(c, 15)  # same 16-word line
        assert not access(c, 16)  # next line

    def test_capacity(self):
        c = BankedCache(1, DEFAULT_PARAMS)
        assert c.capacity_words == 1024

    def test_lru_eviction_within_set(self):
        c = BankedCache(1, DEFAULT_PARAMS)
        sets = c.n_sets
        line_words = DEFAULT_PARAMS.cache_line_words
        # 5 lines mapping to set 0; 4 ways -> first one evicted
        addrs = [i * sets * line_words for i in range(5)]
        for a in addrs:
            access(c, a)
        assert not access(c, addrs[0])  # evicted
        assert access(c, addrs[4])  # most recent survives

    def test_lru_touch_refreshes(self):
        c = BankedCache(1, DEFAULT_PARAMS)
        sets = c.n_sets
        lw = DEFAULT_PARAMS.cache_line_words
        addrs = [i * sets * lw for i in range(4)]
        for a in addrs:
            access(c, a)
        access(c, addrs[0])  # refresh line 0
        access(c, 4 * sets * lw)  # evicts line 1, not 0
        assert access(c, addrs[0])
        assert not access(c, addrs[1])

    def test_writeback_counting(self):
        c = BankedCache(1, DEFAULT_PARAMS)
        sets = c.n_sets
        lw = DEFAULT_PARAMS.cache_line_words
        access(c, 0, write=True)
        for i in range(1, 5):
            access(c, i * sets * lw)
        assert c.writebacks == 1

    def test_hit_rate_idle_is_one(self):
        assert BankedCache(1, DEFAULT_PARAMS).hit_rate == 1.0

    def test_reset_lines_keeps_counters(self):
        c = BankedCache(1, DEFAULT_PARAMS)
        access(c, 0)
        c.reset_lines()
        assert not access(c, 0)  # cold again
        assert c.misses == 2

    def test_sequential_stream_miss_rate(self):
        c = BankedCache(1, DEFAULT_PARAMS)
        n = 512
        for a in range(n):
            access(c, a)
        assert c.misses == n // DEFAULT_PARAMS.cache_line_words


class TestBankedCache:
    def test_aggregate_capacity(self):
        b = BankedCache(8, DEFAULT_PARAMS)
        assert b.capacity_words == 8 * 1024

    def test_run_trace_mask(self):
        b = BankedCache(2, DEFAULT_PARAMS)
        addrs = np.asarray([0, 0, 64, 0], dtype=np.int64)
        writes = np.zeros(4, dtype=bool)
        hits = b.run_trace(addrs, writes)
        assert list(hits) == [False, True, False, True]
        assert b.hits == 2
        assert b.misses == 2

    def test_bigger_group_holds_more(self):
        """A footprint thrashing one bank fits comfortably in eight."""
        foot = 2048  # words
        addrs = np.tile(np.arange(0, foot, 1, dtype=np.int64), 4)
        writes = np.zeros(len(addrs), dtype=bool)
        small = BankedCache(1, DEFAULT_PARAMS)
        big = BankedCache(8, DEFAULT_PARAMS)
        h_small = small.run_trace(addrs, writes).mean()
        h_big = big.run_trace(addrs, writes).mean()
        assert h_big > h_small


class TestInterleave:
    def test_round_robin_order(self):
        src, pos = interleave_round_robin([2, 2])
        assert list(src) == [0, 1, 0, 1]
        assert list(pos) == [0, 0, 1, 1]

    def test_uneven_lengths(self):
        src, pos = interleave_round_robin([3, 1])
        assert len(src) == 4
        # stream 1 exhausts after its first slot
        assert list(src[:2]) == [0, 1]

    def test_empty(self):
        src, pos = interleave_round_robin([])
        assert len(src) == 0

    def test_program_order_preserved_per_stream(self):
        src, pos = interleave_round_robin([5, 3, 4])
        for s in range(3):
            assert list(pos[src == s]) == sorted(pos[src == s])
