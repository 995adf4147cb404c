"""Property-based tests of the LRU cache simulator and the flux solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import DEFAULT_PARAMS
from repro.hardware.analytic import _solve_misses
from repro.hardware.cache import BankedCache, CacheBank
from repro.hardware.profile import Pattern


class _ReferenceLRU:
    """Brain-dead fully-correct LRU reference (list of lines, per set)."""

    def __init__(self, n_sets, ways, line_words):
        self.n_sets, self.ways, self.line_words = n_sets, ways, line_words
        self.sets = [[] for _ in range(n_sets)]

    def access(self, addr):
        line = addr // self.line_words
        s = self.sets[line % self.n_sets]
        if line in s:
            s.remove(line)
            s.append(line)
            return True
        if len(s) >= self.ways:
            s.pop(0)
        s.append(line)
        return False


class TestLRUAgainstReference:
    @given(st.lists(st.integers(0, 4000), min_size=1, max_size=400))
    @settings(max_examples=80, deadline=None)
    def test_hit_sequence_matches(self, addrs):
        ours = CacheBank(DEFAULT_PARAMS)
        ref = _ReferenceLRU(
            ours.n_sets, ours.ways, DEFAULT_PARAMS.cache_line_words
        )
        for a in addrs:
            assert ours.access(a) == ref.access(a)

    @given(st.lists(st.integers(0, 100_000), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_counters_consistent(self, addrs):
        c = CacheBank(DEFAULT_PARAMS)
        for a in addrs:
            c.access(a)
        assert c.hits + c.misses == len(addrs)
        assert 0.0 <= c.hit_rate <= 1.0

    @given(st.lists(st.integers(0, 2000), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_banked_trace_equals_loop(self, addrs):
        a = BankedCache(2, DEFAULT_PARAMS)
        b = BankedCache(2, DEFAULT_PARAMS)
        arr = np.asarray(addrs, dtype=np.int64)
        writes = np.zeros(len(arr), dtype=bool)
        mask = a.run_trace(arr, writes)
        loop = [b.access(int(x)) for x in arr]
        assert list(mask) == loop


class TestFluxSolver:
    @staticmethod
    def entry(count, footprint, pattern=Pattern.RANDOM, passes=1):
        return count, footprint, pattern, passes

    @staticmethod
    def solve(entries, capacity):
        """Misses of one cache level holding ``entries``."""
        count, footprint, pattern, passes = (
            np.array([column]) for column in zip(*entries)
        )
        return _solve_misses(
            count.astype(float),
            footprint.astype(float),
            pattern == Pattern.SEQUENTIAL,
            passes,
            np.ones(count.shape),
            capacity,
            DEFAULT_PARAMS,
        )[0]

    @given(
        count=st.floats(1, 1e6),
        footprint=st.floats(1, 1e7),
        capacity=st.floats(64, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_misses_bounded(self, count, footprint, capacity):
        (miss,) = self.solve([self.entry(count, footprint)], capacity)
        assert 0.0 <= miss <= count + 1e-9

    @given(
        count=st.floats(100, 1e5),
        footprint=st.floats(1000, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_capacity(self, count, footprint):
        (small,) = self.solve([self.entry(count, footprint)], 1024.0)
        (big,) = self.solve([self.entry(count, footprint)], 64 * 1024.0)
        assert big <= small + 1e-6

    def test_tiny_footprint_always_hits_after_cold(self):
        (miss,) = self.solve([self.entry(100_000, 64)], 4096)
        assert miss <= 64 / DEFAULT_PARAMS.cache_line_words + 1.0

    def test_streaming_competitor_degrades_random_stream(self):
        (alone,) = self.solve([self.entry(50_000, 8_000)], 8_192)
        shared, _stream = self.solve(
            [
                self.entry(50_000, 8_000),
                self.entry(150_000, 150_000, Pattern.SEQUENTIAL, 1),
            ],
            8_192,
        )
        assert shared >= alone

    def test_empty_level(self):
        (miss,) = self.solve([self.entry(0, 0)], 1024)
        assert miss == 0.0
