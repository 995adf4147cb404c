"""Fully active IP columns: the reused accounting is the computed one.

A dense frontier with no ``absent`` entry makes every matrix entry
active, so the runtime reuses the per-PE counts, the touched mask, the
frozen profile and its priced report from the operand's memo
(docs/model.md §6k).  Every value here must be bit-identical to today's
computed path: a memo-free ``inner_product`` call and a runtime whose
kernel calls carry no memo.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.runtime as runtime_module
from repro.analysis import sanitize
from repro.core import CoSparseRuntime, SpMVOperand
from repro.errors import AlgorithmError, SimulationError
from repro.formats import COOMatrix
from repro.graphs.pagerank import pagerank_norm_semiring
from repro.hardware import Geometry, HWMode
from repro.hardware.profile import KernelProfile
from repro.spmv import inner_product, reference_spmv
from repro.spmv.inner import _PATTERN
from repro.spmv.partition import build_ip_partitions
from repro.spmv.semiring import (
    Semiring,
    bfs_semiring,
    cf_semiring,
    pagerank_semiring,
    spmv_semiring,
    sssp_semiring,
)
from repro.tune.plan import TuningPlan
from repro.workloads import chung_lu

GEOMETRY = Geometry(2, 4)
N = 300
K = 4


@pytest.fixture(scope="module")
def coo():
    # Skewed rows, some empty: the first-touch counts are not trivial.
    return chung_lu(N, 2400, seed=5)


def _degrees(coo):
    return np.bincount(coo.cols, minlength=coo.n_cols).astype(np.float64)


def _case(name, coo):
    """``(semiring, fully active frontier, current)`` for one algebra."""
    rng = np.random.default_rng(11)
    if name == "spmv":
        return spmv_semiring(), rng.uniform(0.5, 1.5, N), None
    if name == "pr":
        return pagerank_semiring(_degrees(coo)), rng.uniform(0.1, 1.0, N), None
    if name == "pr_norm":
        sr = pagerank_norm_semiring(_degrees(coo), 0.15, N)
        return sr, rng.uniform(0.1, 1.0, N), None
    if name == "cf":
        return (
            cf_semiring(k=K),
            rng.uniform(0.1, 1.0, (N, K)),
            rng.uniform(0.1, 1.0, (N, K)),
        )
    if name == "sssp":  # carry semiring: every distance finite
        return sssp_semiring(), rng.uniform(0.0, 5.0, N), rng.uniform(1.0, 9.0, N)
    raise AssertionError(name)


SEMIRINGS = ("spmv", "pr", "pr_norm", "cf", "sssp")


def _plan(tuned, width):
    if not tuned and width is None:
        return None
    return TuningPlan("degree" if tuned else "identity", width or 0, GEOMETRY.name)


def _runtime(coo, mode, balanced, plan):
    return CoSparseRuntime(
        SpMVOperand(coo), GEOMETRY, policy="static",
        static_config=("ip", mode), balanced=balanced, plan=plan,
    )


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _columns(profile):
    names = [
        "region", "pattern", "count", "footprint", "writes", "passes",
        "in_spm", "shared_footprint", "distinct_touches", "fill_granule",
        "compute_ops", "spm_fill_words", "lcp_serial_elements",
        "lcp_output_words", "lcp_compute_ops", "tile_spm_fill_words",
    ]
    return [getattr(profile, name) for name in names]


def _assert_same_profile(a, b):
    assert a == b
    for x, y in zip(_columns(a), _columns(b)):
        assert _same(x, y)
    assert a.meta == b.meta
    assert a.fixed_overhead_cycles == b.fixed_overhead_cycles


def _memo_free(monkeypatch):
    """Make the runtime's kernel calls carry no memo: today's path."""
    for name in ("inner_product", "inner_product_batch"):
        original = getattr(runtime_module, name)

        def without_memo(*args, memo=None, _original=original, **kw):
            return _original(*args, **kw)

        monkeypatch.setattr(runtime_module, name, without_memo)


@pytest.mark.parametrize("tuned", [False, True], ids=["plain", "tuned"])
@pytest.mark.parametrize("width", [None, 64], ids=["spm-width", "w64"])
@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "naive"])
@pytest.mark.parametrize("mode", [HWMode.SC, HWMode.SCS], ids=["SC", "SCS"])
@pytest.mark.parametrize("name", SEMIRINGS)
def test_reused_column_is_bit_identical(
    coo, monkeypatch, name, mode, balanced, width, tuned
):
    semiring, v, current = _case(name, coo)
    plan = _plan(tuned, width)
    rt = _runtime(coo, mode, balanced, plan)
    first = rt.spmv(v, semiring, current=current)
    second = rt.spmv(v, semiring, current=current)

    # Against a direct, memo-free kernel call on the same operand.
    direct = inner_product(
        rt.operand.coo, v, semiring, GEOMETRY, mode, current=current,
        balanced=balanced, vblock_width=width,
    )
    for result in (first, second):
        assert _same(result.values, direct.values)
        assert _same(result.touched, direct.touched)
        _assert_same_profile(result.profile, direct.profile)
    assert not direct.profile.frozen
    assert direct.profile.meta["active_entries"] == coo.nnz

    # The second call reuses the first call's objects; its report is new.
    assert second.profile is first.profile
    assert first.profile.frozen
    assert second.touched is first.touched
    assert not first.touched.flags.writeable
    rec1, rec2 = rt.log.records
    assert rec2.report is not rec1.report
    assert rec2.report.tile_reports[0] is not rec1.report.tile_reports[0]

    # Against a runtime whose kernel calls carry no memo.
    _memo_free(monkeypatch)
    ref = _runtime(coo, mode, balanced, plan)
    ref_results = [ref.spmv(v, semiring, current=current) for _ in range(2)]
    for got, want in zip((first, second), ref_results):
        assert _same(got.values, want.values)
        assert _same(got.touched, want.touched)
        _assert_same_profile(got.profile, want.profile)
    assert rt.log.records == ref.log.records
    assert repr(rt.log.records) == repr(ref.log.records)
    assert rec1.report.reconfig_cycles > 0 and rec2.report.reconfig_cycles == 0


@pytest.mark.parametrize("name", ["spmv", "pr", "pr_norm", "sssp"])
def test_one_absent_entry_takes_the_partial_path(coo, name):
    semiring, v, current = _case(name, coo)
    v = v.copy()
    hole = int(coo.cols[0])  # a source that feeds at least one entry
    v[hole] = semiring.absent
    rt = _runtime(coo, HWMode.SC, True, None)
    result = rt.spmv(v, semiring, current=current)
    assert rt.operand.ip_memo == {}
    assert not result.profile.frozen
    expected_active = int(np.count_nonzero(coo.cols != hole))
    assert result.profile.meta["active_entries"] == expected_active
    ref = reference_spmv(coo.to_dense(), v, semiring, current)
    assert np.allclose(result.values, ref)
    direct = inner_product(coo, v, semiring, GEOMETRY, HWMode.SC, current=current)
    assert _same(result.values, direct.values)
    _assert_same_profile(result.profile, direct.profile)


def test_each_configuration_prices_once(coo, monkeypatch):
    semiring, v, _ = _case("pr", coo)
    rt = _runtime(coo, HWMode.SC, True, None)
    calls = []
    evaluate = rt.system._analytic.evaluate

    def counting(profile):
        calls.append(profile)
        return evaluate(profile)

    monkeypatch.setattr(rt.system._analytic, "evaluate", counting)
    for _ in range(4):
        rt.spmv(v, semiring)
    assert len(calls) == 1
    energies = {r.report.energy_j for r in rt.log.records[1:]}
    assert len(energies) == 1  # same report, same energy, every call


def test_oracle_probes_reuse_the_frozen_profiles(coo, monkeypatch):
    semiring, v, _ = _case("spmv", coo)
    rt = CoSparseRuntime(SpMVOperand(coo), GEOMETRY, policy="oracle")
    got = [rt.spmv(v, semiring) for _ in range(2)]
    # The IP/SC and IP/SCS probes and the executed column share entries.
    assert len(rt.operand.ip_memo) == 2
    _memo_free(monkeypatch)
    ref = CoSparseRuntime(SpMVOperand(coo), GEOMETRY, policy="oracle")
    want = [ref.spmv(v, semiring) for _ in range(2)]
    for a, b in zip(got, want):
        assert _same(a.values, b.values)
        _assert_same_profile(a.profile, b.profile)
    assert repr(rt.log.records) == repr(ref.log.records)


def test_memo_free_calls_compute_every_time(coo):
    semiring, v, _ = _case("spmv", coo)
    a = inner_product(coo, v, semiring, GEOMETRY, HWMode.SC)
    b = inner_product(coo, v, semiring, GEOMETRY, HWMode.SC)
    assert a.profile is not b.profile
    assert not a.profile.frozen and a.touched.flags.writeable
    # A memo without a caller-held partition is not used either.
    memo = {}
    inner_product(coo, v, semiring, GEOMETRY, HWMode.SC, memo=memo)
    assert memo == {}


def test_frozen_profile_rejects_writes(coo):
    semiring, v, _ = _case("spmv", coo)
    rt = _runtime(coo, HWMode.SCS, True, None)
    profile = rt.spmv(v, semiring).profile
    with pytest.raises(ValueError):
        profile.count[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        rt.spmv(v, semiring).touched[0] = False


class TestSanitizer:
    def test_hit_rechecks_the_stored_counts(self, coo, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # flight dumps
        semiring, v, _ = _case("spmv", coo)
        rt = _runtime(coo, HWMode.SC, True, None)
        with sanitize.override(True):
            rt.spmv(v, semiring)
            rt.spmv(v, semiring)
            ((key, entry),) = rt.operand.ip_memo.items()
            bad = entry.act_pe.copy()
            bad[0] += 1
            rt.operand.ip_memo[key] = entry._replace(act_pe=bad)
            with pytest.raises(
                SimulationError, match=r"\[sanitizer\] inner_product/active"
            ):
                rt.spmv(v, semiring)
        # With the sanitizer off a hit checks nothing.
        with sanitize.override(False):
            rt.spmv(v, semiring)


class TestPrescale:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda d: pagerank_semiring(d),
            lambda d: pagerank_norm_semiring(d, 0.15, len(d)),
        ],
        ids=["pr", "pr_norm"],
    )
    def test_per_vertex_division_matches_per_edge(self, builder):
        tiny = np.finfo(np.float64).smallest_subnormal
        v = np.array(
            [0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, 1.0, 1 / 3,
             np.inf, -np.inf, np.nan, 7.5e300, -2.25, 5e-324, 1e308, 0.1],
        )
        degrees = np.array(
            [0, 1, 3, 7, 0, 2, 1e300, 5, 3, 0, 4, 1e-300, 9, 2, 0.5, 11.0]
        )
        semiring = builder(degrees)
        rng = np.random.default_rng(3)
        cols = rng.integers(0, len(v), 500)
        with np.errstate(over="ignore", invalid="ignore"):
            per_edge = semiring.combine(None, v[cols], None, cols, None)
            per_vertex = semiring.prescale(v)
        assert per_vertex[cols].tobytes() == per_edge.tobytes()

    def test_only_source_only_semirings_have_it(self):
        assert spmv_semiring().prescale is None
        assert sssp_semiring().prescale is None
        assert cf_semiring().prescale is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("reduce_op", np.minimum),
            ("identity", -0.0),
            ("carry_output", True),
            ("value_words", 2),
        ],
    )
    def test_rejects_what_a_matvec_cannot_reproduce(self, field, value):
        kw = dict(
            name="scaled", combine=lambda a, vs, vd, s, d: vs / 2.0,
            reduce_op=np.add, identity=0.0, prescale=lambda v: v / 2.0,
        )
        Semiring(**kw)  # the contract's own case constructs
        kw[field] = value
        with pytest.raises(AlgorithmError, match="prescale"):
            Semiring(**kw)
        # Without a prescale, the same semiring is fine.
        Semiring(**{**kw, "prescale": None})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("carry_output", True),
            ("identity", 1e308),
            ("identity", -np.inf),
            ("identity", np.nan),
            ("reduce_op", np.maximum),
            ("value_words", 2),
        ],
        ids=["carry", "finite-identity", "-inf-identity", "nan-identity",
             "maximum", "two-words"],
    )
    def test_rejects_what_a_uniform_fill_cannot_reproduce(self, field, value):
        kw = dict(
            name="labels", combine=lambda a, vs, vd, s, d: np.array(vs),
            reduce_op=np.minimum, identity=np.inf, absent=np.inf,
            prescale=lambda v: v,
        )
        Semiring(**kw)  # BFS's own combination constructs
        kw[field] = value
        with pytest.raises(AlgorithmError, match="prescale"):
            Semiring(**kw)
        Semiring(**{**kw, "prescale": None})

    def test_bfs_prescale_is_its_combine(self):
        v = np.concatenate([_SPECIALS, np.arange(6.0)])
        cols = np.random.default_rng(4).integers(0, len(v), 400)
        sr = bfs_semiring()
        per_edge = sr.combine(None, v[cols], None, cols, None)
        assert sr.prescale(v)[cols].tobytes() == per_edge.tobytes()

    def test_rebuilt_bfs_semiring_keeps_it(self):
        from repro.cluster.work import semiring_from_spec

        rebuilt = semiring_from_spec({"kind": "bfs"}, {})
        assert rebuilt.prescale is not None
        v = np.array([np.inf, 2.0, -0.0, np.inf])
        assert rebuilt.prescale(v).tobytes() == v.tobytes()

    def test_both_pagerank_builders_construct(self):
        degrees = np.array([0.0, 1.0, 2.0, 5.0])
        for sr in (
            pagerank_semiring(degrees),
            pagerank_norm_semiring(degrees, 0.15, len(degrees)),
        ):
            assert sr.prescale is not None
            assert sr.reduce_op is np.add and sr.value_words == 1

    def test_rebuilt_shard_semiring_keeps_it(self):
        from repro.cluster.work import semiring_from_spec

        sr = pagerank_norm_semiring(np.arange(1.0, 9.0), 0.15, 8)
        arrays = {f"sr_{k}": a for k, a in sr.spec_arrays.items()}
        rebuilt = semiring_from_spec(sr.spec, arrays)
        v = np.linspace(0.1, 0.8, 8)
        assert rebuilt.prescale(v).tobytes() == sr.prescale(v).tobytes()


def test_memo_dies_with_its_operand(coo):
    semiring, v, _ = _case("pr", coo)
    operand = SpMVOperand(coo)
    rt = CoSparseRuntime(operand, GEOMETRY)
    results = [rt.spmv(v, semiring) for _ in range(3)]
    # One column entry, and the prescale column's pattern of ones.
    assert len(operand.ip_memo) == 2
    pattern = weakref.ref(operand.ip_memo[_PATTERN])
    assert isinstance(results[0].profile, KernelProfile)
    alive = weakref.ref(operand)
    del rt, operand, results
    gc.collect()
    assert alive() is None
    assert pattern() is None


# ----------------------------------------------------------------------
# The prescale column is one CSR matvec of a pattern of ones
# ----------------------------------------------------------------------
_SNAN = np.array([0x7FF0_0000_0000_0001, 0xFFF4_0000_0000_0ABC], dtype=np.uint64)
_QNAN = np.array([0x7FF8_0000_0000_0000, 0x7FF8_DEAD_BEEF_0001,
                  0xFFF8_0000_0000_0042], dtype=np.uint64)
_SPECIALS = np.concatenate([
    _SNAN.view(np.float64), _QNAN.view(np.float64),
    [np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e-310,
     1e308, -1e308, 1.0, -1.0, 1 / 3, 3e16, -1e-16],
])


@st.composite
def _operands(draw):
    """A row-sorted COO with duplicates, empty rows and unsorted columns.

    Rows are non-decreasing, as the IP schedule needs; within a row the
    columns keep their drawn order, as a tuned operand's do.
    """
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        max_size=48,
    ))
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    cols = np.array([c for _, c in pairs], dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    return COOMatrix(
        n_rows, n_cols, rows, cols, np.ones(len(rows)), sort=False,
        check=False,
    )


def _given_values(values):
    """A prescale semiring whose per-vertex contributions are ``values``."""
    return Semiring(
        "given", lambda a, vs, vd, s, d: values[s], np.add, 0.0,
        prescale=lambda v: values,
    )


@given(
    coo=_operands(),
    picks=st.lists(st.integers(0, len(_SPECIALS) - 1), min_size=12, max_size=12),
    scale=st.floats(1e-300, 1e300),
    mode=st.sampled_from([HWMode.SC, HWMode.SCS]),
)
@settings(max_examples=200, deadline=None)
def test_prescale_matvec_is_add_at(coo, picks, scale, mode):
    # Mixed magnitudes: every other value is scaled.
    values = _SPECIALS[picks][: coo.n_cols].copy()
    partition = build_ip_partitions(coo.row_extents(), 1, 2)
    memo = {}
    with np.errstate(all="ignore"):
        values[::2] *= scale
        result = inner_product(
            coo, np.ones(coo.n_cols), _given_values(values), Geometry(1, 2),
            mode, partition=partition, memo=memo,
        )
        want = np.zeros(coo.n_rows)
        np.add.at(want, coo.rows, values[coo.cols])
    assert np.array_equal(result.values.view(np.int64), want.view(np.int64))
    assert _PATTERN in memo


@pytest.mark.parametrize("name", ["spmv", "sssp", "cf"])
def test_other_full_columns_build_no_pattern(coo, name):
    semiring, v, current = _case(name, coo)
    rt = _runtime(coo, HWMode.SC, True, None)
    rt.spmv(v, semiring, current=current)
    assert rt.operand.ip_memo and _PATTERN not in rt.operand.ip_memo


def test_profile_only_probes_build_no_pattern(coo):
    semiring, v, _ = _case("pr", coo)
    operand = SpMVOperand(coo)
    for mode in (HWMode.SC, HWMode.SCS):
        result = inner_product(
            coo, v, semiring, GEOMETRY, mode, profile_only=True,
            partition=operand.ip_partition(GEOMETRY), memo=operand.ip_memo,
        )
        assert result.values is None
    assert len(operand.ip_memo) == 2 and _PATTERN not in operand.ip_memo


def test_one_pattern_serves_sc_and_scs(coo):
    semiring, v, _ = _case("pr", coo)
    operand = SpMVOperand(coo)
    runtimes = [
        CoSparseRuntime(
            operand, GEOMETRY, policy="static", static_config=("ip", mode)
        )
        for mode in (HWMode.SC, HWMode.SCS)
    ]
    first = runtimes[0].spmv(v, semiring).values
    pattern = operand.ip_memo[_PATTERN]
    second = runtimes[1].spmv(v, semiring).values
    assert operand.ip_memo[_PATTERN] is pattern
    assert len(operand.ip_memo) == 3  # SC and SCS columns, one pattern
    assert _same(first, second)
    for arr in (pattern.data, pattern.indices, pattern.indptr):
        assert not arr.flags.writeable
    assert pattern.indices.dtype == np.int32 and pattern.nnz == coo.nnz
    alive = weakref.ref(pattern)
    del runtimes, operand, pattern
    gc.collect()
    assert alive() is None
