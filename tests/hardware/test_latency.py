"""Latency-composition helper tests (shared by the model and the trace oracle)."""

import pytest

from repro.hardware import DEFAULT_PARAMS
from repro.hardware.latency import (
    compose_latency,
    hide_fraction,
    shared_conflict_cycles,
)
from repro.hardware.profile import Pattern


class TestHideFractions:
    def test_ordering(self):
        """Prefetchable < independent gather < pointer chase (visible)."""
        seq = hide_fraction(Pattern.SEQUENTIAL, DEFAULT_PARAMS)
        rand = hide_fraction(Pattern.RANDOM, DEFAULT_PARAMS)
        dep = hide_fraction(Pattern.DEPENDENT, DEFAULT_PARAMS)
        assert seq < rand < dep

    def test_bounds(self):
        for p in (Pattern.SEQUENTIAL, Pattern.RANDOM, Pattern.DEPENDENT):
            assert 0.0 <= hide_fraction(p, DEFAULT_PARAMS) <= 1.0


class TestCompose:
    def test_all_hits_cost_base(self):
        lat = compose_latency(1.5, 1.0, 1.0, Pattern.RANDOM, DEFAULT_PARAMS)
        assert lat == pytest.approx(1.5)

    def test_l2_hits_add_visible_fraction(self):
        lat = compose_latency(1.0, 0.0, 1.0, Pattern.DEPENDENT, DEFAULT_PARAMS)
        expected = 1.0 + 0.9 * (DEFAULT_PARAMS.l2_hit_latency - 1.0)
        assert lat == pytest.approx(expected)

    def test_dram_misses_dominate(self):
        all_dram = compose_latency(1.0, 0.0, 0.0, Pattern.DEPENDENT, DEFAULT_PARAMS)
        assert all_dram > 0.8 * DEFAULT_PARAMS.dram_latency * 0.9

    def test_monotone_in_hit_rates(self):
        worse = compose_latency(1.0, 0.2, 0.2, Pattern.RANDOM, DEFAULT_PARAMS)
        better = compose_latency(1.0, 0.8, 0.8, Pattern.RANDOM, DEFAULT_PARAMS)
        assert better < worse

    def test_prefetch_hides_stream_misses(self):
        seq = compose_latency(1.0, 0.0, 0.0, Pattern.SEQUENTIAL, DEFAULT_PARAMS)
        dep = compose_latency(1.0, 0.0, 0.0, Pattern.DEPENDENT, DEFAULT_PARAMS)
        assert seq < dep / 3


class TestSharedConflicts:
    def test_shared_includes_arbitration(self):
        extra = shared_conflict_cycles(8, 8, DEFAULT_PARAMS)
        assert extra >= DEFAULT_PARAMS.xbar_arbitration

    def test_more_requesters_more_conflicts(self):
        few = shared_conflict_cycles(4, 8, DEFAULT_PARAMS)
        many = shared_conflict_cycles(32, 8, DEFAULT_PARAMS)
        assert many > few

    def test_more_banks_fewer_conflicts(self):
        narrow = shared_conflict_cycles(16, 4, DEFAULT_PARAMS)
        wide = shared_conflict_cycles(16, 32, DEFAULT_PARAMS)
        assert wide < narrow

    def test_single_requester_no_serialisation(self):
        assert shared_conflict_cycles(1, 8, DEFAULT_PARAMS) == pytest.approx(
            DEFAULT_PARAMS.xbar_arbitration
        )
