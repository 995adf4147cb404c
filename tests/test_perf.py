"""Tests for :mod:`repro.perf` — counters and the microbench."""

import json

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


class TestMicrobench:
    def test_small_run_counters_identical(self):
        result = perf.microbench(n=5_000, n_banks=2, repeats=1)
        assert result["counters_identical"]
        assert {"reference", "numpy"} <= set(result["engines"])
        for row in result["engines"].values():
            assert row["seconds"] > 0
            assert row["macc_per_s"] > 0
            assert len(row["counters"]) == 3
        assert result["engines"]["reference"]["speedup_vs_reference"] == 1.0

    def test_result_is_json_serializable(self):
        result = perf.microbench(n=2_000, n_banks=1, repeats=1)
        parsed = json.loads(json.dumps(result))
        assert parsed["n_accesses"] == 2_000

    def test_main_prints_json_line(self, capsys):
        rc = perf.main(["--n", "3000", "--banks", "2", "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["counters_identical"]
