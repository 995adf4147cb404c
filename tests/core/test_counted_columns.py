"""Uniform min-semiring IP columns: the cell count is the computed column.

A BFS frontier is a level set: its live sources all hold one label.  A
min-semiring IP column whose ``prescale`` holds one bit pattern over
the live sources takes its per-PE counts, touched rows and values from
one count of active entries per (row, vblock) cell (docs/model.md §6l).
Every value here must be bit-identical to today's path, which a call
without a memo takes.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoSparseRuntime, SpMVOperand
from repro.formats import MultiVector
from repro.graphs import Graph, bfs, bfs_multi, connected_components, sssp
from repro.hardware import Geometry, HWMode
from repro.hardware.analytic import AnalyticModel
from repro.hardware.params import DEFAULT_PARAMS
from repro.perf import COUNTERS, counters
from repro.spmv import inner_product, inner_product_batch
from repro.spmv.inner import _PATTERN, _cell_pattern, _ip_schedule
from repro.spmv.partition import build_ip_partitions
from repro.spmv.semiring import Semiring, bfs_semiring, spmv_semiring
from repro.workloads import chung_lu

from .test_full_active import (
    _SPECIALS,
    _assert_same_profile,
    _memo_free,
    _operands,
    _plan,
    _same,
)

GEOMETRY = Geometry(2, 4)


@pytest.fixture(scope="module")
def coo():
    return chung_lu(300, 2400, seed=5)


def _shifted():
    """A min semiring whose prescale is not the frontier, with a Vector_Op.

    ``v + 1.0`` maps distinct tiny labels to one value, so uniformity is
    a property of the prescale, not of the frontier.
    """
    return Semiring(
        "shifted", lambda a, vs, vd, s, d: vs + 1.0, np.minimum, np.inf,
        absent=np.inf, vector_op=lambda new, old: np.minimum(new, old) * 2.0,
        prescale=lambda v: v + 1.0,
    )


def _counted_delta(fn):
    before = counters.kernel_counted_columns
    result = fn()
    return result, counters.kernel_counted_columns - before


def _uniform(semiring, v):
    bits = semiring.prescale(v).view(np.int64)[v != semiring.absent]
    return bits.size > 0 and bool(np.all(bits == bits[0]))


def _assert_same_result(got, want):
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    assert _same(got.touched, want.touched)
    _assert_same_profile(got.profile, want.profile)


def _assert_same_price(geometry, got, want):
    a, b = AnalyticModel(geometry, DEFAULT_PARAMS).evaluate(
        [got.profile, want.profile]
    )
    assert a.cycles == b.cycles
    assert repr(a) == repr(b)


# ----------------------------------------------------------------------
# Differential: memo (counted) against no memo (today's path)
# ----------------------------------------------------------------------
_NEAR = [
    (0.0, -0.0),
    tuple(_SPECIALS[2:4]),  # two quiet NaN payloads
    (_SPECIALS[0], _SPECIALS[2]),  # a signalling and a quiet NaN
]


@st.composite
def _frontiers(draw, n):
    """A frontier of one value, or of two values equal but for their bits."""
    live = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    v = np.full(n, np.inf)
    if draw(st.booleans()):
        v[live] = _SPECIALS[draw(st.integers(0, len(_SPECIALS) - 1))]
    else:
        pair = draw(st.sampled_from(_NEAR))
        which = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        v[live] = np.where(which, pair[0], pair[1])[live]
    return v


@st.composite
def _cases(draw):
    coo = draw(_operands())
    geometry = draw(st.sampled_from([Geometry(1, 2), Geometry(2, 2)]))
    frontiers = [draw(_frontiers(coo.n_cols)) for _ in range(3)]
    return dict(
        coo=coo,
        geometry=geometry,
        frontiers=frontiers,
        # None keeps one vblock; a narrow width makes several.
        width=draw(st.sampled_from([None, 1, 2, 5])),
        mode=draw(st.sampled_from([HWMode.SC, HWMode.SCS])),
        semiring=draw(st.sampled_from([bfs_semiring(), _shifted()])),
    )


@given(case=_cases())
@settings(max_examples=200, deadline=None)
def test_counted_columns_are_the_computed_ones(case):
    coo, geometry, semiring = case["coo"], case["geometry"], case["semiring"]
    partition = build_ip_partitions(coo.row_extents(), geometry.tiles,
                                    geometry.pes_per_tile)
    kw = dict(partition=partition, vblock_width=case["width"])
    memo = {}
    frontiers = case["frontiers"]
    with np.errstate(all="ignore"):
        for v in frontiers:
            want = inner_product(coo, v, semiring, geometry, case["mode"], **kw)
            got, counted = _counted_delta(lambda: inner_product(
                coo, v, semiring, geometry, case["mode"], memo=memo, **kw
            ))
            _assert_same_result(got, want)
            _assert_same_price(geometry, got, want)
            live = v != semiring.absent
            assert counted == int(_uniform(semiring, v) and not live.all())

        mv = MultiVector(frontiers, absent=semiring.absent, n=coo.n_cols)
        want = inner_product_batch(coo, mv, semiring, geometry, case["mode"],
                                   **kw)
        batch_memo = {}
        got = inner_product_batch(coo, mv, semiring, geometry, case["mode"],
                                  memo=batch_memo, **kw)
    for a, b in zip(got, want):
        _assert_same_result(a, b)


@pytest.mark.parametrize("pair", _NEAR, ids=["zero-signs", "qnans", "snan-qnan"])
def test_near_uniform_frontiers_take_todays_path(coo, pair):
    v = np.full(coo.n_cols, np.inf)
    v[::3], v[1::3] = pair
    operand = SpMVOperand(coo)
    partition = operand.ip_partition(GEOMETRY)
    with np.errstate(invalid="ignore"):
        got, counted = _counted_delta(lambda: inner_product(
            coo, v, bfs_semiring(), GEOMETRY, partition=partition,
            memo=operand.ip_memo,
        ))
        want = inner_product(coo, v, bfs_semiring(), GEOMETRY)
    assert counted == 0 and operand.ip_memo == {}
    _assert_same_result(got, want)


# ----------------------------------------------------------------------
# Runtimes: bfs and bfs_multi count every IP column
# ----------------------------------------------------------------------
def _ip_columns(log):
    return sum(1 for r in log.records if r.algorithm == "ip")


@pytest.mark.parametrize("policy", ["static", "tree"])
@pytest.mark.parametrize("tuned", [False, True], ids=["plain", "tuned"])
def test_bfs_counts_every_ip_column(coo, monkeypatch, policy, tuned):
    graph = Graph(coo, name="counted")
    sources = [0, 7, 19, 42]

    def run():
        rt = CoSparseRuntime(
            SpMVOperand(coo), GEOMETRY, policy=policy,
            static_config=("ip", HWMode.SCS), plan=_plan(tuned, 16),
        )
        single, n_single = _counted_delta(lambda: bfs(graph, 0, runtime=rt))
        ip_single = _ip_columns(rt.log)
        rt.reset_log()
        multi, n_multi = _counted_delta(
            lambda: bfs_multi(graph, sources, runtime=rt)
        )
        return (single, multi), (n_single, ip_single, n_multi,
                                 _ip_columns(rt.log))

    (single, multi), (n_single, ip_single, n_multi, ip_multi) = run()
    assert n_single == ip_single > 0
    assert n_multi == ip_multi > 0
    _memo_free(monkeypatch)
    (ref_single, ref_multi), (n_ref, _, n_ref_multi, _) = run()
    assert n_ref == n_ref_multi == 0
    for got, want in ((single, ref_single), (multi, ref_multi)):
        assert _same(got.values, want.values)
        assert repr(got.log.records) == repr(want.log.records)


def test_other_columns_count_nothing(coo):
    graph = Graph(coo, name="counted")
    rt = CoSparseRuntime(
        SpMVOperand(coo), GEOMETRY, policy="static", static_config=("ip", HWMode.SC)
    )
    before = counters.snapshot()
    sssp(graph, 0, runtime=rt)
    connected_components(graph, geometry=GEOMETRY, policy="static",
                         static_config=("ip", HWMode.SC))
    rt.spmv(np.linspace(0.5, 1.5, coo.n_cols), spmv_semiring())
    v = np.where(np.arange(coo.n_cols) % 4 == 0, 1.0, np.inf)
    operand = SpMVOperand(coo)
    for mode in (HWMode.SC, HWMode.SCS):
        # A profile-only probe, and a call without a caller-held partition.
        probe = inner_product(
            coo, v, bfs_semiring(), GEOMETRY, mode, profile_only=True,
            partition=operand.ip_partition(GEOMETRY), memo=operand.ip_memo,
        )
        assert probe.values is None
        memo = {}
        inner_product(coo, v, bfs_semiring(), GEOMETRY, mode, memo=memo)
        assert memo == {}
    delta = counters.since(before)
    assert delta.get("kernel_executions", 0) > 0
    assert "kernel_counted_columns" not in delta
    assert not any(key[0] == "cells" for key in operand.ip_memo)
    assert "kernel_counted_columns" in COUNTERS


# ----------------------------------------------------------------------
# The cell pattern
# ----------------------------------------------------------------------
def _schedule(matrix, mode=HWMode.SC, width=None):
    partition = build_ip_partitions(matrix.row_extents(), 2, 4)
    return _ip_schedule(matrix, GEOMETRY, mode, DEFAULT_PARAMS, partition,
                        True, 1, width, "test")


def test_cell_pattern_shares_the_ones_pattern(coo):
    operand = SpMVOperand(coo)
    memo = operand.ip_memo
    schedule = _schedule(coo, width=64)
    assert schedule.n_vblocks > 1
    cells = _cell_pattern(coo, schedule, memo)
    ones = memo[_PATTERN]
    assert np.shares_memory(cells.data, ones.data)
    assert np.shares_memory(cells.indices, ones.indices)
    assert cells.shape == (coo.n_rows * schedule.n_vblocks, coo.n_cols)
    assert cells.indptr.dtype == ones.indices.dtype == np.int32
    for arr in (cells.data, cells.indices, cells.indptr):
        assert not arr.flags.writeable
    # One pattern per layout; one vblock is the ones pattern itself.
    assert _cell_pattern(coo, schedule, memo) is cells
    assert _cell_pattern(coo, _schedule(coo), memo) is ones
    assert len(memo) == 2
    # Each cell counts its own entries.
    keys = coo.rows * schedule.n_vblocks + coo.cols // schedule.width
    want = np.bincount(keys, minlength=cells.shape[0]).astype(np.float64)
    assert _same(cells @ np.ones(coo.n_cols), want)

    alive, pattern = weakref.ref(operand), weakref.ref(cells)
    del operand, memo, cells, ones
    gc.collect()
    assert alive() is None and pattern() is None


def test_tuned_operand_gets_cell_ordered_indices(coo):
    rt = CoSparseRuntime(SpMVOperand(coo), GEOMETRY, plan=_plan(True, 16))
    matrix = rt.operand.coo
    schedule = _schedule(matrix, width=16)
    keys = matrix.rows * schedule.n_vblocks + matrix.cols // schedule.width
    assert np.any(keys[1:] < keys[:-1])  # within-row columns step back
    cells = _cell_pattern(matrix, schedule, rt.operand.ip_memo)
    ones = rt.operand.ip_memo[_PATTERN]
    assert np.shares_memory(cells.data, ones.data)
    assert not np.shares_memory(cells.indices, ones.indices)
    assert not cells.indices.flags.writeable
    want = np.bincount(keys, minlength=cells.shape[0]).astype(np.float64)
    assert _same(cells @ np.ones(matrix.n_cols), want)
    # Every cell holds exactly its own columns.
    rows = np.repeat(np.arange(cells.shape[0]), np.diff(cells.indptr))
    assert np.array_equal(rows, np.sort(keys))
    assert np.array_equal(cells.indices // schedule.width,
                          rows % schedule.n_vblocks)
