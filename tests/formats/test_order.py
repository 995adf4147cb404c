"""The radix ordering against the comparison sorts it replaces.

:func:`lex_order` must return ``np.lexsort``'s permutation and
:func:`lex_groups` ``np.unique``'s first indices and inverse, for any
key width; the COO and CSC conversions built on them must equal the
parent's sort-based code kept in :mod:`.reference_order`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix, CSCMatrix
from repro.formats.order import lex_groups, lex_order
from repro.workloads.reorder import permute_matrix
from repro.workloads.synthetic import _finalize

from .reference_order import (
    reference_csc,
    reference_first_of_each,
    reference_row_major,
    reference_sum_duplicates,
    reference_transpose,
)

#: Exclusive key bounds whose largest key needs 1, 2, 3 and 4 16-bit
#: digit passes, plus the degenerate all-zero bound.
BOUNDS = (1, 2, 3, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**48, 2**48 + 1, 2**63)


@st.composite
def key_array(draw, n, bound=None):
    """``n`` keys below ``bound``, drawn from a seeded generator (cheap
    for Hypothesis); ``few`` keys repeat a handful of values, the
    bound's last value among them."""
    bound = draw(st.sampled_from(BOUNDS)) if bound is None else bound
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # few distinct values: many duplicates
        pool = np.asarray([0, bound // 2, bound - 1, rng.integers(0, bound)])
        keys = rng.choice(pool, n)
    else:
        keys = rng.integers(0, bound, n, dtype=np.int64)
    if n and draw(st.booleans()):
        keys[draw(st.integers(0, n - 1))] = bound - 1
    return keys.astype(np.int64)


@st.composite
def key_lists(draw):
    n = draw(st.integers(0, 200))
    return [draw(key_array(n)) for _ in range(draw(st.integers(1, 3)))]


@st.composite
def coo_matrices(draw, max_nnz=200):
    """A COO matrix with duplicates, entries stored in drawn order."""
    n_rows = draw(st.sampled_from((1, 2, 7, 2**16, 2**16 + 3, 300_000)))
    n_cols = draw(st.sampled_from((1, 3, 7, 2**16, 2**16 + 3, 300_000)))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(key_array(nnz, n_rows))
    cols = draw(key_array(nnz, n_cols))
    vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=nnz)
    return n_rows, n_cols, rows, cols, vals


def assert_arrays_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestLexOrder:
    @settings(max_examples=200, deadline=None)
    @given(key_lists())
    def test_matches_lexsort(self, keys):
        got = lex_order(keys)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.lexsort(keys))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 200).flatmap(key_array))
    def test_groups_match_unique(self, key):
        order, starts = lex_groups([key])
        _uniq, first, inverse = np.unique(
            key, return_index=True, return_inverse=True
        )
        assert np.array_equal(order[starts], first)
        numbered = np.empty(len(key), dtype=np.int64)
        numbered[order] = np.cumsum(starts) - 1
        assert np.array_equal(numbered, inverse)

    @pytest.mark.parametrize(
        "top,passes", [(0, 0), (1, 1), (2**16 - 1, 1), (2**16, 2),
                       (2**32 - 1, 2), (2**32, 3), (2**48, 4), (2**63 - 1, 4)]
    )
    def test_one_pass_per_16_bits_of_the_largest_key(self, monkeypatch, top, passes):
        calls = []
        argsort = np.argsort

        def counting(a, *args, **kw):
            calls.append(a.dtype)
            return argsort(a, *args, **kw)

        monkeypatch.setattr(np, "argsort", counting)
        key = np.asarray([top, 0, top, 1 % (top + 1)], dtype=np.int64)
        got = lex_order([key])
        monkeypatch.undo()
        assert calls == [np.uint16] * passes
        assert np.array_equal(got, np.lexsort([key]))

    def test_empty_and_single(self):
        assert lex_order([np.zeros(0, dtype=np.int64)]).tolist() == []
        assert lex_order([np.asarray([5]), np.asarray([2**40])]).tolist() == [0]
        order, starts = lex_groups([np.zeros(0, dtype=np.int64)])
        assert len(order) == 0 and len(starts) == 0

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            lex_order([])
        with pytest.raises(ValueError):
            lex_order([np.asarray([1, -1])])
        with pytest.raises(ValueError):
            lex_order([np.asarray([1, 2]), np.asarray([1])])
        with pytest.raises(TypeError):
            lex_order([np.asarray([1.0, 2.0])])


class TestConversions:
    @settings(max_examples=80, deadline=None)
    @given(coo_matrices())
    def test_row_major_sort(self, m):
        n_rows, n_cols, rows, cols, vals = m
        coo = COOMatrix(n_rows, n_cols, rows, cols, vals)
        assert_arrays_equal(
            coo.to_arrays(), reference_row_major(n_cols, rows, cols, vals)
        )
        assert_arrays_equal(coo.transpose().to_arrays(), reference_transpose(coo))

    @settings(max_examples=80, deadline=None)
    @given(coo_matrices())
    def test_sum_duplicates(self, m):
        n_rows, n_cols, rows, cols, vals = m
        coo = COOMatrix(n_rows, n_cols, rows, cols, vals, sort=False)
        folded = coo.sum_duplicates()
        if coo.nnz:
            assert_arrays_equal(folded.to_arrays(), reference_sum_duplicates(coo))

    @settings(max_examples=80, deadline=None)
    @given(coo_matrices())
    def test_csc_from_coo(self, m):
        n_rows, n_cols, rows, cols, vals = m
        for sort in (True, False):
            coo = COOMatrix(n_rows, n_cols, rows, cols, vals, sort=sort)
            csc = CSCMatrix.from_coo(coo)
            assert_arrays_equal((csc.indptr, csc.indices, csc.vals), reference_csc(coo))

    @settings(max_examples=80, deadline=None)
    @given(coo_matrices(), st.booleans())
    def test_generator_dedup(self, m, self_loops):
        n_rows, n_cols, rows, cols, vals = m
        got = _finalize(n_rows, n_cols, rows, cols, vals, self_loops)
        if self_loops and n_rows == n_cols:
            keep = rows != cols
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        first = reference_first_of_each(n_cols, rows, cols)
        assert_arrays_equal(got.to_arrays(), (rows[first], cols[first], vals[first]))


    @settings(max_examples=80, deadline=None)
    @given(coo_matrices(), st.integers(0, 2**32 - 1))
    def test_transpose_orders_by_one_key(self, m, seed):
        # A sorted matrix with duplicates and its schedule-stable
        # permutation, whose rows ascend but whose columns do not.
        n_rows, n_cols, rows, cols, vals = m
        coo = COOMatrix(n_rows, n_cols, rows, cols, vals)
        rng = np.random.default_rng(seed)
        stable = permute_matrix(
            coo, rng.permutation(n_rows), col_perm=rng.permutation(n_cols),
            stable=True,
        )
        for held in (coo, stable):
            assert_arrays_equal(
                held.transpose().to_arrays(), reference_transpose(held)
            )


@st.composite
def edge_lists(draw):
    """``(n, src, dst, weights)``: repeated edges, self loops, and
    weights among which ``-0.0`` and ``0.0`` both appear."""
    n = draw(st.sampled_from((1, 5, 2**16 + 3, 300_000)))
    m = draw(st.integers(0, 120))
    src = draw(key_array(m, n))
    dst = draw(key_array(m, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if m and draw(st.booleans()):  # self loops
        loops = rng.random(m) < 0.3
        dst[loops] = src[loops]
    weights = rng.choice(np.asarray([-0.0, 0.0, 1.0, -2.5, 0.1]), m)
    return n, src, dst, weights


def _bits(arrays):
    """Arrays as raw bytes: ``-0.0`` differs from ``0.0``."""
    return [a.dtype.str + a.tobytes().hex() for a in arrays]


class TestFoldInOneOrdering:
    """Undirected adjacencies fold their mirrored entries in one place;
    ordering them first, as the sort-then-fold path did, changes no
    bit."""

    @settings(max_examples=120, deadline=None)
    @given(edge_lists())
    def test_summed_equals_sort_then_fold(self, edges):
        n, src, dst, w = edges
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        w = np.concatenate([w, w])
        got = COOMatrix.summed(n, n, src, dst, w)
        want = COOMatrix(n, n, src, dst, w).sum_duplicates()
        assert _bits(got.to_arrays()) == _bits(want.to_arrays())
        assert np.all(np.diff(got.rows) >= 0)

    @settings(max_examples=60, deadline=None)
    @given(edge_lists(), st.booleans())
    def test_from_edges_and_symmetrised(self, edges, undirected):
        from repro.graphs import Graph
        from repro.graphs.cc import _symmetrised

        n, src, dst, w = edges
        graph = Graph.from_edges(n, src, dst, w, undirected=undirected)
        if undirected:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            w = np.concatenate([w, w])
        want = COOMatrix(n, n, src, dst, w).sum_duplicates()
        assert _bits(graph.adjacency.to_arrays()) == _bits(want.to_arrays())
        adj = graph.adjacency
        sym = _symmetrised(graph).adjacency
        want = COOMatrix(
            n, n,
            np.concatenate([adj.rows, adj.cols]),
            np.concatenate([adj.cols, adj.rows]),
            np.ones(2 * adj.nnz),
        ).sum_duplicates()
        assert _bits(sym.to_arrays()) == _bits(want.to_arrays())

    def test_bad_edges_still_raise(self):
        from repro.errors import FormatError
        from repro.graphs import Graph

        with pytest.raises(FormatError):
            Graph.from_edges(3, [0, 3], [1, 2])
        with pytest.raises(FormatError):
            COOMatrix.summed(3, 3, [0, 1], [1], [1.0, 2.0])


def _csc_arrays(csc):
    return csc.indptr, csc.indices, csc.vals


class TestOrdersAlreadyHeld:
    @settings(max_examples=80, deadline=None)
    @given(coo_matrices())
    def test_csc_of_transpose_is_the_row_major_arrays(self, m):
        n_rows, n_cols, rows, cols, vals = m
        coo = COOMatrix(n_rows, n_cols, rows, cols, vals)
        csc = CSCMatrix.of_transpose(coo)
        assert csc.shape == (n_cols, n_rows)
        transposed = COOMatrix(n_cols, n_rows, *reference_transpose(coo), sort=False)
        assert_arrays_equal(_csc_arrays(csc), reference_csc(transposed))

    def test_other_within_row_orders_are_refused(self, powerlaw_coo):
        perm = np.random.default_rng(3).permutation(powerlaw_coo.n_rows)
        stable = permute_matrix(powerlaw_coo, perm, stable=True)
        assert CSCMatrix.of_transpose(stable) is None
        assert CSCMatrix.of_transpose(permute_matrix(powerlaw_coo, perm)) is not None

    def test_copies_so_writes_to_the_source_never_show(self, powerlaw_coo):
        coo = powerlaw_coo
        csc = CSCMatrix.of_transpose(coo)
        assert not np.shares_memory(csc.indices, coo.cols)
        assert not np.shares_memory(csc.vals, coo.vals)
        want = csc.vals.copy()
        coo.vals[:] = -1.0
        assert np.array_equal(csc.vals, want)
