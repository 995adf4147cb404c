"""Trace-replay engine tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hardware import (
    DEFAULT_PARAMS,
    Geometry,
    HWMode,
    PETrace,
    Pattern,
    Region,
)
from repro.hardware.trace import TraceEngine

from .reference_model import PE, Stream, Tile, pack


def trace_profile(mode, geometry, addr_lists, region=Region.VECTOR_IN, in_spm=False):
    """One tile per geometry row, each PE replaying its address list."""
    tiles = []
    idx = 0
    for _t in range(geometry.tiles):
        pes = []
        for _p in range(geometry.pes_per_tile):
            addrs = np.asarray(addr_lists[idx % len(addr_lists)], dtype=np.int64)
            idx += 1
            tr = PETrace(
                regions=np.full(len(addrs), int(region), dtype=np.int8),
                addrs=addrs,
                writes=np.zeros(len(addrs), dtype=bool),
            )
            pes.append(
                PE(
                    compute_ops=10.0,
                    streams=[
                        Stream(
                            region,
                            len(addrs),
                            Pattern.RANDOM,
                            footprint=max(len(set(addrs.tolist())), 1),
                            in_spm=in_spm,
                        )
                    ],
                    trace=tr,
                )
            )
        tiles.append(Tile(pes=pes))
    return pack("ip" if mode in (HWMode.SC, HWMode.SCS) else "op", mode, tiles)


@pytest.fixture
def geom():
    return Geometry(2, 2)


@pytest.fixture
def engine(geom):
    return TraceEngine(geom, DEFAULT_PARAMS)


class TestReplay:
    def test_requires_traces(self, engine, geom):
        p = pack("ip", HWMode.SC, [Tile(pes=[PE()])])
        with pytest.raises(SimulationError):
            engine.evaluate(p)

    def test_repeated_address_hits(self, engine, geom):
        p = trace_profile(HWMode.SC, geom, [[0] * 100])
        r = engine.evaluate(p)
        assert r.counters.l1_hit_rate > 0.95
        assert r.fidelity == "trace"

    def test_streaming_addresses_miss_per_line(self, engine, geom):
        # every PE streams the same addresses; under the shared L1 the
        # tile takes one miss per line, so the per-access miss rate is
        # 1/(line_words * pes_per_tile)
        p = trace_profile(HWMode.SC, geom, [list(range(1600))])
        r = engine.evaluate(p)
        expected = 1 - 1 / (16 * geom.pes_per_tile)
        assert r.counters.l1_hit_rate == pytest.approx(expected, abs=0.02)

    def test_spm_accesses_bypass_caches(self, engine, geom):
        p = trace_profile(HWMode.SCS, geom, [[0, 1, 2] * 10], in_spm=True)
        r = engine.evaluate(p)
        assert r.counters.spm_accesses == 30 * geom.n_pes
        assert r.counters.l1_accesses == 0

    def test_ps_has_no_l1_cache(self, engine, geom):
        # under PS a cache-path stream goes straight to L2
        p = trace_profile(HWMode.PS, geom, [[0] * 50])
        r = engine.evaluate(p)
        assert r.counters.l1_hits == 0
        assert r.counters.l2_accesses == 50 * geom.n_pes

    def test_shared_pes_share_lines(self, geom):
        """Two PEs touching the same words: the second finds them hot."""
        engine = TraceEngine(geom, DEFAULT_PARAMS)
        same = trace_profile(HWMode.SC, geom, [list(range(0, 512))])
        disjoint = trace_profile(
            HWMode.SC,
            geom,
            [
                list(range(0, 512)),
                list(range(10000, 10512)),
                list(range(20000, 20512)),
                list(range(30000, 30512)),
            ],
        )
        r_same = engine.evaluate(same)
        r_disj = TraceEngine(geom, DEFAULT_PARAMS).evaluate(disjoint)
        assert r_same.counters.l1_hit_rate > r_disj.counters.l1_hit_rate


class TestAgainstAnalytic:
    """Both fidelity modes must rank configurations the same way on the
    real kernels (the decision layer depends on it)."""

    def test_ip_cycles_within_factor_two(self, medium_coo):
        from repro.hardware import TransmuterSystem
        from repro.spmv import inner_product, spmv_semiring
        import numpy as np

        geom = Geometry(2, 4)
        v = np.zeros(medium_coo.n_cols)
        v[::3] = 1.0
        res = inner_product(
            medium_coo, v, spmv_semiring(), geom, HWMode.SC, with_trace=True
        )
        analytic = TransmuterSystem(geom, fidelity="analytic").run(res.profile)
        trace = TransmuterSystem(geom, fidelity="trace").run(res.profile)
        ratio = analytic.cycles / trace.cycles
        assert 0.5 < ratio < 2.0
