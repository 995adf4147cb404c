"""Profile-contract tests (stream columns / PETrace / KernelProfile)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hardware import HWMode, KernelProfile, PETrace, Pattern, Region

from .reference_model import PE, Stream, Tile, pack


def one_stream(region, count, pattern, footprint):
    """A one-tile, one-PE profile holding a single stream."""
    return KernelProfile(
        "ip", HWMode.SC, region=[[[region]]], pattern=[[[pattern]]],
        count=[[[count]]], footprint=[[[footprint]]],
    )


class TestAccessStream:
    """The per-stream columns: their checks and defaults."""

    def test_rejects_unknown_pattern(self):
        with pytest.raises(SimulationError):
            one_stream(Region.MATRIX, 10, len(Pattern), 10)

    def test_rejects_negative_counts(self):
        with pytest.raises(SimulationError):
            one_stream(Region.MATRIX, -1, Pattern.RANDOM, 10)

    def test_defaults(self):
        s = one_stream(Region.HEAP, 10, Pattern.DEPENDENT, 20)
        assert not s.in_spm[0, 0, 0]
        assert not s.shared_footprint[0, 0, 0]
        assert s.passes[0, 0, 0] == 1
        assert s.writes[0, 0, 0] == 0.0
        assert s.distinct_touches[0, 0, 0] == np.inf  # no register-run cap
        assert s.fill_granule[0, 0, 0] == 0


class TestPETrace:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(SimulationError):
            PETrace(
                np.zeros(2, dtype=np.int8),
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=bool),
            )

    def test_concat(self):
        a = PETrace(
            np.zeros(2, dtype=np.int8),
            np.asarray([1, 2], dtype=np.int64),
            np.zeros(2, dtype=bool),
        )
        b = PETrace(
            np.ones(1, dtype=np.int8),
            np.asarray([9], dtype=np.int64),
            np.ones(1, dtype=bool),
        )
        c = PETrace.concat([a, b])
        assert c.n_accesses == 3
        assert list(c.addrs) == [1, 2, 9]

    def test_concat_empty(self):
        assert PETrace.concat([]).n_accesses == 0


class TestKernelProfile:
    def make(self, algorithm="ip", mode=HWMode.SC):
        pe = PE(
            compute_ops=5.0,
            streams=[Stream(Region.MATRIX, 7, Pattern.SEQUENTIAL, 7)],
        )
        return pack(algorithm, mode, [Tile(pes=[pe, pe])])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SimulationError):
            self.make(algorithm="gemm")

    def test_rejects_empty_tiles(self):
        with pytest.raises(SimulationError):
            KernelProfile(
                "ip", HWMode.SC, region=[], pattern=[], count=np.zeros((0, 1, 1)),
                footprint=[],
            )

    def test_totals(self):
        p = self.make()
        assert p.compute_ops.sum() == 10.0
        assert p.count.sum() == 14.0
        assert p.n_tiles == 1

    def test_has_traces(self):
        p = self.make()
        assert not p.has_traces()
        p.traces = [
            PETrace(
                np.zeros(0, dtype=np.int8),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=bool),
            )
            for _ in range(2)
        ]
        assert p.has_traces()

    def test_stream_lookup(self):
        regions = self.make().region[0, 0]
        assert (regions == Region.MATRIX).any()
        assert not (regions == Region.HEAP).any()
