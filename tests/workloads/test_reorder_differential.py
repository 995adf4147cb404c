"""Differential tests: BFS/RCM orderings vs the per-reseed reference loop.

Cached tuning plans store an ordering's name and regenerate its
permutation on load, so :func:`bfs_order` and :func:`rcm_order` must
stay bit-identical to the original traversal.  The graphs are drawn to
stress the reseed rule: several components, isolated vertices (each one
a reseed) and small degrees, so ties are everywhere.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix
from repro.workloads import chung_lu, reorder
from repro.workloads.reorder import bfs_order, rcm_order

from .reference_reorder import reference_discovery_order


@st.composite
def graphs(draw):
    """A square matrix over 1-60 vertices split into 1-6 components.

    Edges stay inside their component; a vertex no edge draws is
    isolated.  Duplicates and self loops are kept as drawn.
    """
    n = draw(st.integers(1, 60))
    n_comp = draw(st.integers(1, min(6, n)))
    comp = np.sort(
        np.asarray(draw(st.lists(st.integers(0, n_comp - 1), min_size=n, max_size=n)))
    )
    members = [np.flatnonzero(comp == c) for c in range(n_comp)]
    rows, cols = [], []
    for _ in range(draw(st.integers(0, 2 * n))):
        group = members[draw(st.integers(0, n_comp - 1))]
        if len(group) == 0:
            continue
        rows.append(int(group[draw(st.integers(0, len(group) - 1))]))
        cols.append(int(group[draw(st.integers(0, len(group) - 1))]))
    return COOMatrix(n, n, rows, cols, np.ones(len(rows)))


def reference(order_fn, matrix, **kw):
    """``order_fn`` computed through the reference traversal."""
    with mock.patch.object(
        reorder, "_discovery_order", reference_discovery_order
    ):
        return order_fn(matrix, **kw)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_matches_reference(matrix, data):
    for order_fn in (bfs_order, rcm_order):
        np.testing.assert_array_equal(
            order_fn(matrix), reference(order_fn, matrix)
        )
        source = data.draw(st.integers(0, matrix.n_rows - 1))
        np.testing.assert_array_equal(
            order_fn(matrix, source=source),
            reference(order_fn, matrix, source=source),
        )


def test_matches_reference_on_power_law_graph():
    """Hundreds of reseeds: chung_lu leaves many vertices isolated."""
    matrix = chung_lu(3000, 6000, seed=5)
    for order_fn in (bfs_order, rcm_order):
        np.testing.assert_array_equal(
            order_fn(matrix), reference(order_fn, matrix)
        )
