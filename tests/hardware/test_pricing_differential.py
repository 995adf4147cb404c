"""Differential test of the analytic model against its scalar reference.

The analytic model prices a profile's columns with array operations,
every PE (or tile) of a cache level at once.  The reference in
``reference_model.py`` walks the same profile stream by stream, the way
the model was first written.  Every field of every report must be equal
under ``==``: cycles, the bandwidth floor, all nine counters, each
tile's PE and LCP cycles, and the detail dict.

Two kinds of profile feed it: the kernels' own, over geometries,
frontier densities, value widths and every hardware mode, and random
hand-made ones with zero-count slots, repeated regions, SPM flags,
stores, register-run caps, fill granules, shared footprints and every
per-PE and per-tile term.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats import CSCMatrix, SparseVector
from repro.hardware import (
    DEFAULT_PARAMS,
    Geometry,
    HWMode,
    KernelProfile,
    Pattern,
    Region,
)
from repro.hardware.analytic import AnalyticModel
from repro.spmv import cf_semiring, inner_product, outer_product, spmv_semiring
from repro.workloads import chung_lu

from .reference_model import PE, Stream, Tile, pack, reference_evaluate

GEOMETRIES = ("2x8", "4x8", "8x16")
DENSITIES = (0.002, 0.03, 0.3, 1.0)


def report_fields(report):
    return (
        report.cycles,
        report.bandwidth_floor_cycles,
        dataclasses.astuple(report.counters),
        [t.pe_cycles for t in report.tile_reports],
        [t.lcp_cycles for t in report.tile_reports],
        report.detail,
        report.fidelity,
        report.clock_hz,
    )


def assert_prices_like_reference(profile: KernelProfile, geometry: Geometry):
    """The array model and the reference agree under every mode."""
    for mode in HWMode:
        priced = dataclasses.replace(profile, mode=mode)
        actual = AnalyticModel(geometry, DEFAULT_PARAMS).evaluate(priced)
        expected = reference_evaluate(priced, geometry, DEFAULT_PARAMS)
        assert report_fields(actual) == report_fields(expected), mode
        assert actual == expected


@pytest.fixture(scope="module")
def graph():
    coo = chung_lu(1500, 12_000, seed=11)
    return coo, CSCMatrix.from_coo(coo)


def frontier(n, density, seed):
    rng = np.random.default_rng(seed)
    k = max(1, int(density * n))
    idx = np.sort(rng.choice(n, k, replace=False))
    return SparseVector(n, idx, rng.uniform(0.5, 1.5, k))


class TestKernelProfiles:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_inner_product(self, graph, geometry, density):
        coo, _csc = graph
        geom = Geometry.parse(geometry)
        dense = frontier(coo.n_cols, density, seed=3).to_dense()
        for mode in (HWMode.SC, HWMode.SCS):
            res = inner_product(coo, dense, spmv_semiring(), geom, mode,
                                profile_only=True)
            assert_prices_like_reference(res.profile, geom)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_inner_product_wide_values(self, graph, geometry, density):
        coo, _csc = graph
        geom = Geometry.parse(geometry)
        rng = np.random.default_rng(5)
        v = rng.random((coo.n_cols, 8))
        v[rng.random(coo.n_cols) >= density] = 0.0
        for mode in (HWMode.SC, HWMode.SCS):
            res = inner_product(coo, v, cf_semiring(k=8), geom, mode,
                                current=rng.random((coo.n_rows, 8)))
            assert_prices_like_reference(res.profile, geom)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_outer_product(self, graph, geometry, density):
        _coo, csc = graph
        geom = Geometry.parse(geometry)
        sv = frontier(csc.n_cols, density, seed=4)
        for mode in (HWMode.PC, HWMode.PS, HWMode.SC):
            res = outer_product(csc, sv, spmv_semiring(), geom, mode,
                                profile_only=True)
            assert_prices_like_reference(res.profile, geom)

    @pytest.mark.parametrize("mode", [HWMode.PC, HWMode.PS])
    def test_outer_product_measured_heap(self, mode):
        coo = chung_lu(300, 2000, seed=2)
        csc = CSCMatrix.from_coo(coo)
        geom = Geometry.parse("2x8")
        res = outer_product(csc, frontier(300, 0.2, seed=6), spmv_semiring(),
                            geom, mode, exact=True)
        assert_prices_like_reference(res.profile, geom)


class TestHandMadeProfiles:
    GEOM = Geometry(2, 3)

    def test_heap_split_and_late_first_stream(self):
        """Two streams of one region in one PE; a region whose first
        cache-path stream is on a later PE (the first PE keeps it in SPM
        or issues nothing)."""
        heap = dict(region=Region.HEAP, pattern=Pattern.DEPENDENT)
        vec = dict(region=Region.VECTOR_IN, pattern=Pattern.RANDOM)
        tiles = [
            Tile(pes=[
                PE(10.0, [Stream(count=500.0, footprint=64.0, in_spm=True, **vec),
                          Stream(count=900.0, footprint=40.0, **heap),
                          Stream(count=300.0, footprint=4000.0, **heap)]),
                PE(20.0, [Stream(count=0.0, footprint=9.0, **vec)]),
                PE(30.0, [Stream(count=700.0, footprint=5000.0, **vec),
                          Stream(count=50.0, footprint=20.0, **heap)]),
            ], lcp_serial_elements=12.0, lcp_output_words=40.0),
            Tile(pes=[
                PE(5.0, [Stream(count=800.0, footprint=30000.0, writes=300.0,
                                fill_granule=1, **vec)]),
                PE(), PE(1.0, [Stream(count=70.0, footprint=7.0, **heap)]),
            ], lcp_compute_ops=8.0, spm_fill_words=600.0),
        ]
        assert_prices_like_reference(pack("op", HWMode.PC, tiles), self.GEOM)

    def test_shared_and_private_footprints_in_one_region(self):
        """At L2 a shared footprint is a floor and private ones add, so
        their order within the region decides the footprint."""
        vec = dict(region=Region.VECTOR_IN, pattern=Pattern.RANDOM,
                   count=4000.0)
        tiles = [
            Tile(pes=[
                PE(0.0, [Stream(footprint=50000.0, shared_footprint=True, **vec)]),
                PE(0.0, [Stream(footprint=90000.0, **vec)]),
                PE(0.0, [Stream(footprint=70000.0, shared_footprint=True, **vec)]),
            ]),
            Tile(pes=[PE(0.0, [Stream(footprint=120000.0, **vec)])] * 3),
        ]
        assert_prices_like_reference(pack("ip", HWMode.SC, tiles), self.GEOM)

    def test_insert_rate_underflow(self):
        """A subnormal random stream beside a stream that never misses:
        the insert rate underflows to 0 against an infinite interval, so
        k is NaN and the survival probability stays 1."""
        tiles = [Tile(pes=[PE(0.0, [
            Stream(Region.MATRIX, 1e5, Pattern.SEQUENTIAL, 0.0),
            Stream(Region.HEAP, 5e-324, Pattern.DEPENDENT, 0.0),
        ])])]
        assert_prices_like_reference(pack("op", HWMode.PC, tiles), Geometry(1, 1))


def _columns(draw, shape, dtype, elements):
    return draw(hnp.arrays(dtype, shape, elements=elements))


@st.composite
def random_profiles(draw):
    tiles = draw(st.integers(1, 3))
    pes = draw(st.integers(1, 5))
    slots = draw(st.integers(0, 5))
    shape = (tiles, pes, slots)
    amounts = st.one_of(st.just(0.0), st.floats(0.0, 1e5), st.integers(0, 5000))
    sizes = st.one_of(st.just(0.0), st.floats(0.0, 1e7), st.integers(1, 4096))
    sparse = st.one_of(st.just(0.0), st.floats(0.0, 5e4))
    return Geometry(tiles, pes), KernelProfile(
        algorithm=draw(st.sampled_from(["ip", "op"])),
        mode=draw(st.sampled_from(list(HWMode))),
        region=_columns(draw, shape, np.int8, st.sampled_from(list(Region))),
        pattern=_columns(draw, shape, np.int8, st.sampled_from(list(Pattern))),
        count=_columns(draw, shape, float, amounts),
        footprint=_columns(draw, shape, float, sizes),
        writes=_columns(draw, shape, float, amounts),
        passes=_columns(draw, shape, np.int64, st.integers(1, 4)),
        in_spm=_columns(draw, shape, bool, st.booleans()),
        shared_footprint=_columns(draw, shape, bool, st.booleans()),
        distinct_touches=_columns(
            draw, shape, float, st.one_of(st.just(np.inf), amounts)
        ),
        fill_granule=_columns(draw, shape, np.int64, st.integers(0, 16)),
        compute_ops=_columns(draw, shape[:2], float, amounts),
        spm_fill_words=_columns(draw, shape[:2], float, sparse),
        lcp_serial_elements=_columns(draw, shape[:1], float, sparse),
        lcp_output_words=_columns(draw, shape[:1], float, sparse),
        lcp_compute_ops=_columns(draw, shape[:1], float, sparse),
        tile_spm_fill_words=_columns(draw, shape[:1], float, sparse),
        fixed_overhead_cycles=draw(st.floats(0.0, 500.0)),
    )


@given(random_profiles())
@settings(max_examples=150, deadline=None)
def test_random_profiles_price_like_reference(case):
    geometry, profile = case
    assert_prices_like_reference(profile, geometry)
