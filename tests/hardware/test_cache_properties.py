"""Property-based tests of the analytic cache model's flux solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import DEFAULT_PARAMS
from repro.hardware.analytic import _solve_misses
from repro.hardware.profile import Pattern


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
