"""Tests for :mod:`repro.perf`'s counters."""

import numpy as np
import pytest

from repro import perf
from repro.hardware.cache import BankedCache
from repro.hardware.params import DEFAULT_PARAMS


@pytest.fixture(autouse=True)
def fresh_counters():
    perf.counters.reset()
    yield
    perf.counters.reset()


class TestCounters:
    def test_reset_zeroes_everything(self):
        perf.counters.kernel_executions = 3
        perf.counters.trace_accesses = 7
        perf.counters.reset()
        snap = perf.counters.snapshot()
        assert snap["kernel_executions"] == 0
        assert snap["trace_accesses"] == 0

    def test_trace_replay_counts_accesses(self):
        cache = BankedCache(2, DEFAULT_PARAMS)
        addrs = np.arange(500, dtype=np.int64)
        cache.run_trace(addrs, np.zeros(500, dtype=bool))
        assert perf.counters.trace_accesses == 500

    def test_snapshot_is_a_copy(self):
        snap = perf.counters.snapshot()
        snap["kernel_executions"] = 99
        assert perf.counters.kernel_executions == 0
