"""Tuned drivers must be bit-identical to untuned in original ids.

The whole point of the schedule-stable permutation plus the VertexMap
boundary discipline is that a tuning plan is *invisible* to callers:
every driver, run under any non-identity ordering, must return exactly
the values an untuned run returns — ``np.array_equal``, not allclose.
"""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    bfs,
    bfs_multi,
    collaborative_filtering,
    pagerank,
    sssp,
    sssp_multi,
)
from repro.graphs.bc import betweenness_centrality
from repro.graphs.cc import connected_components
from repro.tune import TuningPlan
from repro.workloads import chung_lu

GEO = "1x2"


@pytest.fixture(scope="module")
def graph():
    return Graph(chung_lu(400, 4000, seed=29, weighted=True), name="rt")


@pytest.fixture(
    scope="module", params=["degree", "bfs", "rcm", "block"]
)
def plan(request):
    return TuningPlan(request.param, 256, GEO)


def identical(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class TestBitIdentity:
    def test_bfs(self, graph, plan):
        base = bfs(graph, 3, geometry=GEO).values
        tuned = bfs(graph, 3, geometry=GEO, plan=plan).values
        assert identical(base, tuned)

    def test_sssp(self, graph, plan):
        base = sssp(graph, 3, geometry=GEO).values
        tuned = sssp(graph, 3, geometry=GEO, plan=plan).values
        assert identical(base, tuned)

    def test_pagerank(self, graph, plan):
        kw = dict(geometry=GEO, max_iters=5, tol=0.0)
        base = pagerank(graph, **kw).values
        tuned = pagerank(graph, plan=plan, **kw).values
        assert identical(base, tuned)

    def test_connected_components(self, graph, plan):
        base = connected_components(graph, geometry=GEO).values
        tuned = connected_components(graph, geometry=GEO, plan=plan).values
        assert identical(base, tuned)

    def test_collaborative_filtering(self, graph, plan):
        kw = dict(geometry=GEO, k=4, iterations=2, seed=5)
        base = collaborative_filtering(graph, **kw).values
        tuned = collaborative_filtering(graph, plan=plan, **kw).values
        assert identical(base, tuned)

    def test_bfs_multi(self, graph, plan):
        srcs = [0, 7, 31]
        base = bfs_multi(graph, srcs, geometry=GEO).values
        tuned = bfs_multi(graph, srcs, geometry=GEO, plan=plan).values
        assert identical(base, tuned)

    def test_sssp_multi(self, graph, plan):
        srcs = [0, 7, 31]
        base = sssp_multi(graph, srcs, geometry=GEO).values
        tuned = sssp_multi(graph, srcs, geometry=GEO, plan=plan).values
        assert identical(base, tuned)

    def test_betweenness_centrality(self, graph, plan):
        kw = dict(geometry=GEO, sources=[2, 9])
        base = betweenness_centrality(graph, **kw).values
        tuned = betweenness_centrality(graph, plan=plan, **kw).values
        assert identical(base, tuned)
