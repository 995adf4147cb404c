"""Experiment-plumbing tests (cache, run_config, env switches)."""

import os

import numpy as np
import pytest

from repro.experiments.common import (
    fig4_matrix,
    fig7_matrix,
    full_runs_enabled,
    run_config,
    table3_graph,
)
from repro.formats import CSCMatrix
from repro.hardware import Geometry, HWMode
from repro.workloads import TABLE3_GRAPHS, random_frontier


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestCaches:
    def test_fig4_matrix_cached(self):
        a = fig4_matrix(0, scale=64)
        b = fig4_matrix(0, scale=64)
        assert a.allclose(b)
        assert a.n_rows == 131_072 // 64

    def test_fig7_matrix_is_skewed(self):
        m = fig7_matrix(0, scale=64)
        deg = m.col_counts()
        assert deg.max() > 4 * max(deg.mean(), 1)

    def test_table3_graph_label(self):
        g = table3_graph("vsp", scale=64)
        assert "vsp" in g.name and "1/64" in g.name

    def test_cache_hits_disk(self, tmp_path):
        fig4_matrix(1, scale=64)
        files = os.listdir(os.environ["REPRO_CACHE_DIR"])
        assert any(f.startswith("fig4_u_") for f in files)

    def test_scales_sharing_a_vertex_count_get_their_own_graphs(self):
        # Both scales floor to 64 vertices but sample different edge
        # counts, so one must not be handed the other's cache entry.
        spec = TABLE3_GRAPHS["twitter"]
        assert spec.size(4096)[0] == spec.size(2048)[0]
        for scale in (4096, 2048):
            got = table3_graph("twitter", scale=scale).adjacency
            want = spec.adjacency(scale)
            for a, b in zip(got.to_arrays(), want.to_arrays()):
                assert np.array_equal(a, b)


class TestRunConfig:
    def test_prices_both_algorithms(self):
        coo = fig4_matrix(0, scale=64)
        csc = CSCMatrix.from_coo(coo)
        geom = Geometry(2, 4)
        f = random_frontier(coo.n_cols, 0.01, seed=1)
        ip = run_config(coo, csc, f, "ip", HWMode.SC, geom)
        op = run_config(coo, csc, f, "op", HWMode.PC, geom)
        assert ip.cycles > 0 and op.cycles > 0
        assert ip.detail["algorithm"] == "ip"
        assert op.detail["algorithm"] == "op"


class TestEnvSwitches:
    def test_full_runs_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "0")
        assert not full_runs_enabled()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_runs_enabled()
        monkeypatch.setenv("REPRO_FULL", "false")
        assert not full_runs_enabled()
