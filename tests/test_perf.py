"""Tests for :mod:`repro.perf`'s counters."""

import pytest

from repro import perf


@pytest.fixture(autouse=True)
def fresh_counters():
    perf.counters.reset()
    yield
    perf.counters.reset()


class TestCounters:
    def test_reset_zeroes_everything(self):
        perf.counters.kernel_executions = 3
        perf.counters.kernel_profile_only = 7
        perf.counters.reset()
        snap = perf.counters.snapshot()
        assert snap["kernel_executions"] == 0
        assert snap["kernel_profile_only"] == 0

    def test_snapshot_is_a_copy(self):
        snap = perf.counters.snapshot()
        snap["kernel_executions"] = 99
        assert perf.counters.kernel_executions == 0
