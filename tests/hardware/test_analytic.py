"""Behavioural tests of the analytic performance model.

These pin down the *mechanisms* the reconfiguration thresholds rely on
(Section III-C), not absolute cycle counts.
"""

import pytest

from repro.hardware import (
    DEFAULT_PARAMS,
    Geometry,
    HWMode,
    Pattern,
    Region,
)
from repro.hardware.analytic import AnalyticModel, _miss_bearing

from .reference_model import PE, Stream, Tile, pack


def make_profile(mode, streams_per_pe, geometry, ops=1000.0, **tile_kw):
    tiles = [
        Tile(
            pes=[
                PE(compute_ops=ops, streams=[Stream(**s) for s in streams_per_pe])
                for _ in range(geometry.pes_per_tile)
            ],
            **tile_kw,
        )
        for _ in range(geometry.tiles)
    ]
    return pack("ip" if mode in (HWMode.SC, HWMode.SCS) else "op", mode, tiles)


@pytest.fixture
def geom():
    return Geometry(2, 8)


@pytest.fixture
def model(geom):
    return AnalyticModel(geom, DEFAULT_PARAMS)


def cycles(model, profile):
    return model.evaluate(profile).cycles


class TestBasics:
    def test_compute_only(self, model, geom):
        p = make_profile(HWMode.SC, [], geom, ops=500.0)
        r = model.evaluate(p)
        assert r.cycles == pytest.approx(500.0)

    def test_spm_stream_costs_fixed_latency(self, model, geom):
        s = dict(
            region=Region.VECTOR_IN,
            count=1000,
            pattern=Pattern.RANDOM,
            footprint=100,
            in_spm=True,
        )
        p = make_profile(HWMode.SCS, [s], geom, ops=0.0)
        r = model.evaluate(p)
        assert r.counters.spm_accesses == 1000 * geom.n_pes
        # every access at the fixed SPM latency, no DRAM traffic
        assert r.counters.dram_words == 0

    def test_small_random_footprint_hits(self, model, geom):
        s = dict(
            region=Region.VECTOR_IN,
            count=10000,
            pattern=Pattern.RANDOM,
            footprint=256,
            shared_footprint=True,
        )
        p = make_profile(HWMode.SC, [s], geom, ops=0.0)
        r = model.evaluate(p)
        assert r.counters.l1_hit_rate > 0.9

    def test_huge_random_footprint_misses(self, model, geom):
        s = dict(
            region=Region.VECTOR_IN,
            count=10000,
            pattern=Pattern.RANDOM,
            footprint=10_000_000,
            shared_footprint=True,
        )
        p = make_profile(HWMode.SC, [s], geom, ops=0.0)
        r = model.evaluate(p)
        assert r.counters.l1_hit_rate < 0.2

    def test_sequential_stream_mostly_hits(self, model, geom):
        s = dict(
            region=Region.MATRIX,
            count=16000,
            pattern=Pattern.SEQUENTIAL,
            footprint=16000,
        )
        p = make_profile(HWMode.SC, [s], geom, ops=0.0)
        r = model.evaluate(p)
        # one miss per 16-word line
        assert r.counters.l1_hit_rate == pytest.approx(1 - 1 / 16, abs=0.01)

    def test_bandwidth_floor_binds(self, model, geom):
        s = dict(
            region=Region.MATRIX,
            count=1_000_000,
            pattern=Pattern.SEQUENTIAL,
            footprint=1_000_000,
        )
        p = make_profile(HWMode.SC, [s], geom, ops=0.0)
        r = model.evaluate(p)
        assert r.bandwidth_floor_cycles > 0
        assert r.cycles >= r.bandwidth_floor_cycles


class TestMechanisms:
    def test_dependent_pattern_stalls_more_than_sequential(self, model, geom):
        base = dict(region=Region.MATRIX, count=5000, footprint=500_000)
        seq = make_profile(
            HWMode.PC, [dict(base, pattern=Pattern.SEQUENTIAL)], geom, ops=0.0
        )
        dep = make_profile(
            HWMode.PC, [dict(base, pattern=Pattern.DEPENDENT)], geom, ops=0.0
        )
        assert cycles(model, dep) > 2 * cycles(model, seq)

    def test_stores_cheaper_than_loads(self, model, geom):
        base = dict(
            region=Region.VECTOR_OUT,
            count=5000,
            pattern=Pattern.RANDOM,
            footprint=500_000,
        )
        loads = make_profile(HWMode.PC, [base], geom, ops=0.0)
        stores = make_profile(HWMode.PC, [dict(base, writes=5000)], geom, ops=0.0)
        assert cycles(model, stores) < cycles(model, loads)

    def test_distinct_touches_caps_misses(self, model, geom):
        base = dict(
            region=Region.VECTOR_OUT,
            count=50000,
            pattern=Pattern.RANDOM,
            footprint=500_000,
        )
        raw = make_profile(HWMode.PC, [base], geom, ops=0.0)
        credited = make_profile(
            HWMode.PC, [dict(base, distinct_touches=500.0)], geom, ops=0.0
        )
        assert cycles(model, credited) < 0.2 * cycles(model, raw)

    def test_fill_granule_reduces_dram_traffic(self, model, geom):
        base = dict(
            region=Region.VECTOR_OUT,
            count=5000,
            pattern=Pattern.RANDOM,
            footprint=5_000_000,
        )
        line = model.evaluate(make_profile(HWMode.PC, [base], geom, ops=0.0))
        word = model.evaluate(
            make_profile(HWMode.PC, [dict(base, fill_granule=1)], geom, ops=0.0)
        )
        assert word.counters.dram_words < line.counters.dram_words / 8

    def test_lcp_serialises_tile(self, model, geom):
        p_fast = make_profile(HWMode.PC, [], geom, ops=100.0)
        p_slow = make_profile(
            HWMode.PC, [], geom, ops=100.0, lcp_serial_elements=10_000.0
        )
        assert cycles(model, p_slow) > cycles(model, p_fast) + 1000

    def test_lcp_rmw_rows_dominate(self, model, geom):
        p = make_profile(HWMode.PC, [], geom, ops=0.0, lcp_output_words=2000.0)
        # 1000 output rows x lcp_rmw_cycles_per_row
        assert cycles(model, p) == pytest.approx(
            1000 * DEFAULT_PARAMS.lcp_rmw_cycles_per_row, rel=0.1
        )

    def test_shared_spm_fill_charged_to_every_pe(self, model, geom):
        p = make_profile(HWMode.SCS, [], geom, ops=0.0, spm_fill_words=32000.0)
        r = model.evaluate(p)
        expected = (
            32000.0
            * max(
                DEFAULT_PARAMS.spm_fill_cycles_per_word,
                geom.tiles / DEFAULT_PARAMS.dram_words_per_cycle,
            )
            * (1 - DEFAULT_PARAMS.spm_fill_overlap)
        )
        assert max(r.tile_reports[0].pe_cycles) == pytest.approx(expected)
        # but the DRAM traffic is counted once per tile
        assert r.counters.dram_words == pytest.approx(32000.0 * geom.tiles)


class TestReconfigurationDirections:
    """The decision-tree-relevant orderings the model must produce."""

    def _vector_gather(self, density, footprint, in_spm):
        count = 20000
        return [
            dict(
                region=Region.MATRIX,
                count=3 * count,
                pattern=Pattern.SEQUENTIAL,
                footprint=3 * count,
            ),
            dict(
                region=Region.VECTOR_IN,
                count=count,
                pattern=Pattern.RANDOM,
                footprint=footprint,
                in_spm=in_spm,
                shared_footprint=True,
            ),
            dict(
                region=Region.VECTOR_OUT,
                count=2 * int(count * density),
                pattern=Pattern.RANDOM,
                footprint=4000,
                writes=int(count * density),
                fill_granule=1,
            ),
        ]

    def test_scs_beats_sc_under_heavy_output_pressure(self, model, geom):
        """Dense vectors: output traffic evicts vector lines in SC."""
        fp = geom.l1_tile_words(DEFAULT_PARAMS)
        sc = make_profile(
            HWMode.SC, self._vector_gather(1.0, fp, False), geom, ops=0.0
        )
        scs = make_profile(
            HWMode.SCS, self._vector_gather(1.0, fp, True), geom, ops=0.0
        )
        assert cycles(model, scs) < cycles(model, sc)

    def test_ps_beats_pc_when_heap_spills(self, model, geom):
        heap_words = 8 * geom.l1_pe_words(DEFAULT_PARAMS)
        stream = dict(
            region=Region.HEAP,
            count=100_000,
            pattern=Pattern.DEPENDENT,
            footprint=heap_words,
        )
        pc = make_profile(HWMode.PC, [stream], geom, ops=0.0)
        ps = make_profile(HWMode.PS, [dict(stream, in_spm=True)], geom, ops=0.0)
        assert cycles(model, ps) < cycles(model, pc)

    def test_pc_beats_ps_when_heap_fits(self, model, geom):
        heap_words = 100
        stream = dict(
            region=Region.HEAP,
            count=100_000,
            pattern=Pattern.DEPENDENT,
            footprint=heap_words,
        )
        pc = make_profile(HWMode.PC, [stream], geom, ops=0.0)
        ps = make_profile(HWMode.PS, [dict(stream, in_spm=True)], geom, ops=0.0)
        # PS pays the SPM management overhead with nothing to win
        assert cycles(model, pc) < cycles(model, ps)


class TestMissBearing:
    def test_writes_excluded(self):
        s = make_profile(
            HWMode.PC,
            [dict(region=Region.VECTOR_OUT, count=100, pattern=Pattern.RANDOM,
                  footprint=10, writes=40)],
            Geometry(1, 1),
        )
        assert _miss_bearing(s.count, s.writes, s.distinct_touches) == 60

    def test_distinct_touches_cap(self):
        s = make_profile(
            HWMode.PC,
            [dict(region=Region.VECTOR_OUT, count=100, pattern=Pattern.RANDOM,
                  footprint=10, distinct_touches=25)],
            Geometry(1, 1),
        )
        assert _miss_bearing(s.count, s.writes, s.distinct_touches) == 25
