"""Trace-replay oracle tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.formats import CSCMatrix
from repro.hardware import (
    DEFAULT_PARAMS,
    Geometry,
    HWMode,
    Pattern,
    Region,
    TransmuterSystem,
)
from repro.spmv import spmv_semiring
from repro.workloads import random_frontier

from .reference_model import PE, Stream, Tile, pack
from .trace_oracle import PETrace, TraceEngine, exact_op, traced_ip


def trace_profile(mode, geometry, addr_lists, region=Region.VECTOR_IN, in_spm=False):
    """One tile per geometry row, each PE replaying its address list:
    the profile and its traces."""
    tiles = []
    traces = []
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
            traces.append(tr)
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
                )
            )
        tiles.append(Tile(pes=pes))
    algorithm = "ip" if mode in (HWMode.SC, HWMode.SCS) else "op"
    return pack(algorithm, mode, tiles), traces


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
            engine.evaluate(p, None)
        with pytest.raises(SimulationError):
            engine.evaluate(p, [None])

    def test_repeated_address_hits(self, engine, geom):
        r = engine.evaluate(*trace_profile(HWMode.SC, geom, [[0] * 100]))
        assert r.counters.l1_hit_rate > 0.95
        assert r.detail["replayed_accesses"] == 100 * geom.n_pes

    def test_streaming_addresses_miss_per_line(self, engine, geom):
        # every PE streams the same addresses; under the shared L1 the
        # tile takes one miss per line, so the per-access miss rate is
        # 1/(line_words * pes_per_tile)
        r = engine.evaluate(*trace_profile(HWMode.SC, geom, [list(range(1600))]))
        expected = 1 - 1 / (16 * geom.pes_per_tile)
        assert r.counters.l1_hit_rate == pytest.approx(expected, abs=0.02)

    def test_spm_accesses_bypass_caches(self, engine, geom):
        r = engine.evaluate(
            *trace_profile(HWMode.SCS, geom, [[0, 1, 2] * 10], in_spm=True)
        )
        assert r.counters.spm_accesses == 30 * geom.n_pes
        assert r.counters.l1_accesses == 0

    def test_ps_has_no_l1_cache(self, engine, geom):
        # under PS a cache-path stream goes straight to L2
        r = engine.evaluate(*trace_profile(HWMode.PS, geom, [[0] * 50]))
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
        r_same = engine.evaluate(*same)
        r_disj = TraceEngine(geom, DEFAULT_PARAMS).evaluate(*disjoint)
        assert r_same.counters.l1_hit_rate > r_disj.counters.l1_hit_rate


class TestAgainstAnalytic:
    """Trace replay and the analytic model must price the real kernels
    alike (the decision layer depends on it)."""

    def test_ip_cycles_within_factor_two(self, medium_coo):
        geom = Geometry(2, 4)
        v = np.zeros(medium_coo.n_cols)
        v[::3] = 1.0
        res, traces = traced_ip(medium_coo, v, spmv_semiring(), geom, HWMode.SC)
        analytic = TransmuterSystem(geom).evaluate_without_switching(res.profile)
        trace = TraceEngine(geom).evaluate(res.profile, traces)
        ratio = analytic.cycles / trace.cycles
        assert 0.5 < ratio < 2.0


class TestExactMerge:
    def test_mismatch_raises_simulation_error(self, medium_coo, monkeypatch):
        """The cross-check raises rather than asserts: this module is not
        a test module, so ``python -O`` would strip a bare assert."""
        from . import trace_oracle

        real = trace_oracle._exact_merge

        def corrupted(*args, **kwargs):
            out, traces, stats = real(*args, **kwargs)
            return out + 1.0, traces, stats

        monkeypatch.setattr(trace_oracle, "_exact_merge", corrupted)
        csc = CSCMatrix.from_coo(medium_coo)
        sv = random_frontier(csc.n_cols, 0.01, seed=5)
        with pytest.raises(SimulationError):
            exact_op(csc, sv, spmv_semiring(), Geometry(2, 4))
