"""Table III suite and figure-matrix suite tests."""

import hashlib

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    FIG4_DIMENSIONS,
    TABLE3_GRAPHS,
    fig4_matrices,
    fig7_matrices,
    load_graph,
)


class TestTable3Specs:
    def test_all_five_rows(self):
        assert set(TABLE3_GRAPHS) == {
            "livejournal",
            "pokec",
            "youtube",
            "twitter",
            "vsp",
        }

    def test_paper_counts(self):
        assert TABLE3_GRAPHS["pokec"].vertices == 1_632_803
        assert TABLE3_GRAPHS["pokec"].edges == 30_622_564
        assert TABLE3_GRAPHS["livejournal"].edges == 68_992_772

    def test_directedness(self):
        assert TABLE3_GRAPHS["twitter"].directed
        assert not TABLE3_GRAPHS["youtube"].directed
        assert not TABLE3_GRAPHS["vsp"].directed

    def test_densities_match_paper_column(self):
        # Table III lists e.g. pokec at 1.2e-5, twitter at 2.7e-4
        assert TABLE3_GRAPHS["pokec"].density == pytest.approx(1.15e-5, rel=0.05)
        assert TABLE3_GRAPHS["twitter"].density == pytest.approx(2.7e-4, rel=0.05)


class TestGeneration:
    def test_scaled_size(self):
        g = load_graph("twitter", scale=8, seed=1)
        spec = TABLE3_GRAPHS["twitter"]
        assert g.n_vertices == spec.vertices // 8
        assert g.n_edges == pytest.approx(spec.edges // 8, rel=0.2)

    def test_avg_degree_preserved(self):
        g = load_graph("twitter", scale=8, seed=1)
        spec = TABLE3_GRAPHS["twitter"]
        assert g.n_edges / g.n_vertices == pytest.approx(
            spec.avg_degree, rel=0.25
        )

    def test_undirected_generation_symmetric(self):
        g = load_graph("vsp", scale=32, seed=2)
        dense = g.adjacency.to_dense() != 0
        assert np.array_equal(dense, dense.T)

    def test_social_graphs_are_skewed(self):
        g = load_graph("pokec", scale=128, seed=3)
        deg = g.in_degrees()
        assert deg.max() > 5 * max(deg.mean(), 1)

    def test_vsp_is_uniform(self):
        g = load_graph("vsp", scale=32, seed=4)
        deg = g.in_degrees()
        assert deg.max() < 4 * deg.mean()

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            load_graph("orkut")

    def test_bad_scale_rejected(self):
        with pytest.raises(WorkloadError):
            TABLE3_GRAPHS["vsp"].generate(scale=0)

    def test_extreme_scale_capped(self):
        g = load_graph("vsp", scale=1024, seed=5)
        assert g.n_edges <= g.n_vertices**2


#: SHA-256 (first 32 hex digits) of each stand-in's rows, cols and vals
#: (dtype name, then bytes, per array) at seed 42, recorded before
#: ``GraphSpec.adjacency`` and the sort-free ``_finalize`` existed.
_ADJACENCY_DIGESTS = {
    ("livejournal", 256): "6a42d85e99c66e9f176cbb28e86cc118",
    ("pokec", 256): "7ff88ffb8ed5dbae520bff3ddc9e8404",
    ("youtube", 256): "b75a3574c858b1cfe55b78f9fbfae2dc",
    ("twitter", 256): "2e7dd9d387c42c97ca53db0c7f121999",
    ("vsp", 256): "2e599e0dfb57e099b27ebbe36a67e62c",
    ("livejournal", 1024): "9c89d295eeabb22425fa8fe9224dd2dc",
    ("pokec", 1024): "8fa3b1392bc7bcf19648e161c5463db8",
    ("youtube", 1024): "6ce8109abae83fa641967d8ffc20be7f",
    ("twitter", 1024): "f772bceb256a905d4f68e1446265d032",
    ("vsp", 1024): "b52ca68cb34ab0136c07163ccbf87ee8",
}


class TestAdjacency:
    @pytest.mark.parametrize("name,scale", sorted(_ADJACENCY_DIGESTS))
    def test_matches_the_recorded_arrays(self, name, scale):
        adj = TABLE3_GRAPHS[name].adjacency(scale=scale)
        h = hashlib.sha256()
        for arr in adj.to_arrays():
            h.update(str(arr.dtype).encode())
            h.update(arr.tobytes())
        assert h.hexdigest()[:32] == _ADJACENCY_DIGESTS[name, scale]

    def test_generate_wraps_it(self):
        spec = TABLE3_GRAPHS["twitter"]
        adj = spec.adjacency(scale=256, seed=3)
        g = spec.generate(scale=256, seed=3)
        assert g.name == "twitter@1/256"
        for a, b in zip(g.adjacency.to_arrays(), adj.to_arrays()):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_bad_scale_rejected(self):
        with pytest.raises(WorkloadError):
            TABLE3_GRAPHS["pokec"].adjacency(scale=0)


class TestFigureSuites:
    def test_fig4_dimensions(self):
        assert [n for n, _ in FIG4_DIMENSIONS] == [
            131_072,
            262_144,
            524_288,
            1_048_576,
        ]
        assert all(nnz == 4_000_000 for _, nnz in FIG4_DIMENSIONS)

    def test_fig4_scaled_generation(self):
        mats = fig4_matrices(scale=64)
        assert len(mats) == 4
        assert mats[0].n_rows == 131_072 // 64
        # "the same number of non-zero elements"
        nnzs = [m.nnz for m in mats]
        assert max(nnzs) / min(nnzs) < 1.1

    def test_fig7_scaled_generation(self):
        mats = fig7_matrices(scale=64)
        assert len(mats) == 4
        deg = mats[0].col_counts()
        assert deg.max() > 4 * max(deg.mean(), 1)  # power-law
