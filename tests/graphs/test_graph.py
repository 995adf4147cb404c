"""Graph container tests."""

import numpy as np
import pytest

from repro.errors import AlgorithmError
from repro.formats import COOMatrix
from repro.graphs import Graph
from repro.workloads import cached_matrix
from repro.workloads.reorder import permute_matrix

from ..formats.reference_order import reference_csc, reference_transpose


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(AlgorithmError):
            Graph(COOMatrix(2, 3, [0], [1], [1.0]))

    def test_from_edges(self):
        g = Graph.from_edges(4, [0, 1], [1, 2], [2.0, 3.0])
        assert g.n_vertices == 4
        assert g.n_edges == 2
        dense = g.adjacency.to_dense()
        assert dense[0, 1] == 2.0 and dense[1, 2] == 3.0

    def test_from_edges_default_weights(self):
        g = Graph.from_edges(3, [0], [1])
        assert g.adjacency.vals[0] == 1.0

    def test_undirected_mirrors(self):
        g = Graph.from_edges(3, [0], [1], [5.0], undirected=True)
        dense = g.adjacency.to_dense()
        assert dense[0, 1] == dense[1, 0] == 5.0

    def test_duplicate_edges_sum(self):
        g = Graph.from_edges(2, [0, 0], [1, 1], [1.0, 2.0])
        assert g.n_edges == 1
        assert g.adjacency.to_dense()[0, 1] == 3.0

    def test_from_networkx_directed(self):
        nx = pytest.importorskip("networkx")
        d = nx.DiGraph()
        d.add_edge(0, 1, weight=2.0)
        d.add_edge(1, 2)
        g = Graph.from_networkx(d)
        assert g.n_edges == 2
        assert g.adjacency.to_dense()[0, 1] == 2.0

    def test_from_networkx_undirected(self):
        nx = pytest.importorskip("networkx")
        u = nx.Graph()
        u.add_edge(0, 1)
        g = Graph.from_networkx(u)
        assert g.n_edges == 2  # mirrored


class TestStructure:
    def test_operand_is_transposed(self):
        g = Graph.from_edges(3, [0], [2], [7.0])
        # operand rows are destinations: SpMV(G.T, f)
        assert g.operand.coo.to_dense()[2, 0] == 7.0

    def test_degrees(self):
        g = Graph.from_edges(3, [0, 0, 1], [1, 2, 2])
        assert list(g.out_degrees()) == [2, 1, 0]
        assert list(g.in_degrees()) == [0, 1, 2]

    def test_degrees_cached(self, small_graph):
        assert small_graph.out_degrees() is small_graph.out_degrees()

    def test_check_source(self, small_graph):
        assert small_graph.check_source(0) == 0
        with pytest.raises(AlgorithmError):
            small_graph.check_source(small_graph.n_vertices)

    def test_density(self):
        g = Graph.from_edges(10, [0], [1])
        assert g.density == pytest.approx(0.01)


def _adjacency(powerlaw_coo, layout, tmp_path):
    if layout == "stable-permuted":
        perm = np.random.default_rng(3).permutation(powerlaw_coo.n_rows)
        return permute_matrix(powerlaw_coo, perm, stable=True)
    if layout == "cached":
        return cached_matrix(str(tmp_path), "g", lambda: powerlaw_coo)
    return powerlaw_coo


class TestOperand:
    @pytest.mark.parametrize("layout", ["sorted", "stable-permuted", "cached"])
    def test_equals_the_sort_based_build(self, powerlaw_coo, layout, tmp_path):
        adj = _adjacency(powerlaw_coo, layout, tmp_path)
        op = Graph(adj).operand
        rows, cols, vals = reference_transpose(adj)
        for got, want in zip(op.coo.to_arrays(), (rows, cols, vals)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        ref = reference_csc(COOMatrix(adj.n_cols, adj.n_rows, rows, cols, vals, sort=False))
        for got, want in zip((op.csc.indptr, op.csc.indices, op.csc.vals), ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_writes_to_the_adjacency_leave_the_operand_alone(self, powerlaw_coo):
        g = Graph(powerlaw_coo)
        before = g.operand.csc.vals.copy(), g.operand.csc.indices.copy()
        powerlaw_coo.vals[:] = -1.0
        powerlaw_coo.cols[:] = 0
        assert np.array_equal(g.operand.csc.vals, before[0])
        assert np.array_equal(g.operand.csc.indices, before[1])
