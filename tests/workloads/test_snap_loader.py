"""SNAP edge-list loader tests."""

import numpy as np
import pytest

from repro.graphs import Graph, bfs
from repro.workloads import load_snap_edgelist

from ..formats.reference_order import reference_first_of_each

SAMPLE = """\
# Directed graph (each unordered pair of nodes is saved once)
# FromNodeId\tToNodeId
10 20
10 30
20 30
30 10
30 30
10 20
"""


@pytest.fixture
def snap_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text(SAMPLE)
    return str(p)


class TestLoader:
    def test_compacts_ids(self, snap_file):
        m = load_snap_edgelist(snap_file)
        assert m.shape == (3, 3)  # ids 10/20/30 -> 0/1/2

    def test_drops_comments_duplicates_selfloops(self, snap_file):
        m = load_snap_edgelist(snap_file)
        # edges: 0->1, 0->2, 1->2, 2->0 (self-loop 30->30 and dup dropped)
        assert m.nnz == 4
        dense = m.to_dense()
        assert dense[0, 1] == 1.0 and dense[2, 0] == 1.0
        assert dense[2, 2] == 0.0

    def test_keeps_the_first_weight_of_each_edge(self, tmp_path):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 40, 400) * 7
        dst = rng.integers(0, 40, 400) * 7
        w = rng.integers(1, 9, 400) / 4
        p = tmp_path / "dup.txt"
        p.write_text("".join(f"{a} {b} {c}\n" for a, b, c in zip(src, dst, w)))
        m = load_snap_edgelist(str(p), weighted=True)
        ids = np.unique(np.concatenate([src, dst]))
        s, d = np.searchsorted(ids, src), np.searchsorted(ids, dst)
        keep = s != d
        s, d, w = s[keep], d[keep], w[keep]
        first = reference_first_of_each(len(ids), s, d)
        for got, want in zip(m.to_arrays(), (s[first], d[first], w[first])):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_undirected_mirrors(self, snap_file):
        m = load_snap_edgelist(snap_file, undirected=True)
        dense = m.to_dense()
        assert np.array_equal(dense != 0, (dense != 0).T)

    def test_weighted_third_column(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("1 2 3.5\n2 3 1.25\n")
        m = load_snap_edgelist(str(p), weighted=True)
        assert m.to_dense()[0, 1] == 3.5

    def test_unweighted_ignores_third_column(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("1 2 3.5\n")
        m = load_snap_edgelist(str(p), weighted=False)
        assert m.to_dense()[0, 1] == 1.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("# nothing\n")
        m = load_snap_edgelist(str(p))
        assert m.shape == (0, 0)

    def test_loaded_graph_runs_algorithms(self, snap_file):
        g = Graph(load_snap_edgelist(snap_file), name="snap")
        run = bfs(g, 0, geometry="1x2")
        assert run.values[0] == 0.0
        assert np.isfinite(run.values).all()  # strongly reachable sample
