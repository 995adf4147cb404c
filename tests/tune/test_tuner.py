"""Autotuner tests: grid, probes, selection, caching, runtime wiring."""

import numpy as np
import pytest

from repro.core import CoSparseRuntime
from repro.errors import ConfigurationError
from repro.hardware import DEFAULT_PARAMS, Geometry
from repro.hardware.cache import BankedCache
from repro.perf import counters
from repro.tune import (
    ORDERINGS,
    STORAGES,
    TuningPlan,
    autotune,
    candidate_grid,
    default_widths,
)
from repro.tune.probe import (
    WALL_PROBE_SEED,
    cache_probe,
    stream_order,
    wall_probe,
)
from repro.workloads import chung_lu
from repro.workloads.reorder import ORDERING_METHODS


@pytest.fixture(scope="module")
def matrix():
    return chung_lu(600, 6000, seed=11)


@pytest.fixture
def tune_cache(tmp_path, monkeypatch):
    """All caches (workload, pricing, plan) in a fresh temp dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_PRICING_CACHE", "1")
    monkeypatch.setenv("REPRO_TUNE_CACHE", "1")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    counters.reset()
    yield tmp_path
    counters.reset()


#: Restricted grid keeping autotune tests inside the fast subset:
#: baseline + degree ordering x one width x two storages.
_SMALL = dict(orderings=("degree",), widths=(256,), storages=("coo", "blocked"))


class TestCandidateGrid:
    def test_baseline_first(self):
        geo = Geometry(2, 4)
        grid = candidate_grid(geo)
        first = grid[0]
        assert first.is_identity
        assert first.storage == "coo"
        assert first.vblock_width == default_widths(geo, DEFAULT_PARAMS)[0]

    def test_full_grid_size(self):
        geo = Geometry(2, 4)
        widths = default_widths(geo, DEFAULT_PARAMS)
        # baseline + orderings x widths x storages minus the baseline dup
        expected = len(ORDERINGS) * len(widths) * len(STORAGES)
        assert len(candidate_grid(geo)) == expected

    def test_orderings_cover_identity_plus_methods(self):
        assert ORDERINGS == ("identity",) + ORDERING_METHODS

    def test_validation(self):
        geo = Geometry(2, 4)
        with pytest.raises(ConfigurationError):
            candidate_grid(geo, orderings=("hilbert",))
        with pytest.raises(ConfigurationError):
            candidate_grid(geo, widths=(0,))
        with pytest.raises(ConfigurationError):
            candidate_grid(geo, storages=("csr",))

    def test_labels_unique(self):
        grid = candidate_grid(Geometry(2, 4))
        labels = [c.label for c in grid]
        assert len(labels) == len(set(labels))


class TestProbes:
    def test_stream_order_coo_hybrid_stored(self):
        cols = np.array([5, 1, 9, 0])
        assert stream_order(cols, "coo", 4) is None
        assert stream_order(cols, "hybrid", 4) is None

    def test_stream_order_blocked_vblock_major(self):
        cols = np.array([5, 1, 9, 0, 4])
        order = stream_order(cols, "blocked", 4)
        blocks = (cols[order] // 4).tolist()
        assert blocks == sorted(blocks)
        # stable: within a block, original relative order survives
        assert cols[order].tolist() == [1, 0, 5, 4, 9]

    def test_stream_order_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            stream_order(np.array([0]), "csr", 4)

    def test_cache_probe_perfect_locality(self):
        """A stream that reuses one tiny segment hits after warmup."""
        cols = np.zeros(1000, dtype=np.int64)
        arrays = {
            "coo_rows": np.zeros(1000, dtype=np.int64),
            "coo_cols": cols,
            "coo_vals": np.ones(1000),
        }
        res = cache_probe(
            {"geometry": "2x4", "vblock_width": 64, "storage": "coo"},
            arrays,
        )
        assert res["accesses"] == 1000
        assert res["hit_rate"] > 0.99

    def test_cache_probe_hybrid_pins_first_vblock(self):
        """Gathers below the vblock width never touch the cache."""
        cols = np.arange(100, dtype=np.int64)
        arrays = {
            "coo_rows": np.zeros(100, dtype=np.int64),
            "coo_cols": cols,
            "coo_vals": np.ones(100),
        }
        res = cache_probe(
            {"geometry": "2x4", "vblock_width": 40, "storage": "hybrid"},
            arrays,
        )
        assert res["pinned_hits"] == 40

    def test_wall_probe_times_and_reports_passes(self, matrix):
        arrays = {
            "coo_rows": matrix.rows,
            "coo_cols": matrix.cols,
            "coo_vals": matrix.vals,
        }
        res = wall_probe(
            {
                "vblock_width": 128,
                "storage": "blocked",
                "shape": [matrix.n_rows, matrix.n_cols],
                "passes": 2,
            },
            arrays,
        )
        assert res["wall_s"] > 0.0
        assert res["passes"] == 2

    def test_wall_probe_seed_is_fixed(self):
        assert WALL_PROBE_SEED == 20210607


class TestAutotune:
    def test_returns_valid_plan(self, matrix, tune_cache):
        plan = autotune(matrix, "2x4", jobs=1, passes=1, **_SMALL)
        assert plan.ordering in ORDERINGS
        assert plan.storage in STORAGES
        assert plan.vblock_width > 0
        assert plan.geometry == "2x4"
        assert plan.candidates == 3  # baseline + degree x 256 x 2 storages
        assert set(plan.baseline) == {"hit_rate", "wall_s", "cycles"}
        assert set(plan.metrics) == {"hit_rate", "wall_s", "cycles"}

    def test_never_loses_to_baseline(self, matrix, tune_cache):
        """Selection is dominance-gated: the winner's modelled hit rate
        and wall clock are never worse than identity's."""
        plan = autotune(matrix, "2x4", jobs=1, passes=1, **_SMALL)
        if not plan.is_identity:
            assert plan.metrics["hit_rate"] >= plan.baseline["hit_rate"] - 1e-9
            assert plan.metrics["wall_s"] <= plan.baseline["wall_s"]

    def test_accepts_graph_and_operand(self, matrix, tune_cache):
        """Graph / operand / raw COO of the same matrix unwrap to the
        same plan key (the second and third calls are plan-cache hits)."""
        from repro.graphs import Graph

        g = Graph(matrix)
        a = autotune(g, "2x4", jobs=1, passes=1, **_SMALL)
        b = autotune(g.operand, "2x4", jobs=1, passes=1, **_SMALL)
        c = autotune(g.operand.coo, "2x4", jobs=1, passes=1, **_SMALL)
        assert a.to_dict() == b.to_dict() == c.to_dict()
        assert counters.tuning_plan_cache_hits == 2

    def test_rejects_non_matrix(self, tune_cache):
        with pytest.raises(ConfigurationError):
            autotune([[1, 0], [0, 1]], "2x4")

    def test_warm_retune_hits_plan_cache(self, matrix, tune_cache):
        """Acceptance: a warm second tuning run executes ZERO pricing
        kernels — the plan cache short-circuits the whole evaluation."""
        cold = autotune(matrix, "2x4", jobs=1, passes=1, **_SMALL)
        assert counters.tuning_plan_cache_hits == 0
        assert counters.tuning_plan_cache_misses == 1
        assert counters.tuning_candidates == 3
        assert counters.pricing_tasks > 0

        counters.reset()
        warm = autotune(matrix, "2x4", jobs=1, passes=1, **_SMALL)
        assert counters.tuning_plan_cache_hits == 1
        assert counters.tuning_candidates == 0
        assert counters.pricing_tasks == 0
        assert counters.kernel_executions == 0
        assert warm.to_dict() == cold.to_dict()

    def test_plan_cache_disabled_still_hits_pricing_cache(
        self, matrix, tune_cache
    ):
        """Without the plan cache, the warm run re-evaluates but every
        probe is a pricing-cache hit: still zero kernel executions."""
        autotune(
            matrix, "2x4", jobs=1, passes=1, use_plan_cache=False, **_SMALL
        )
        counters.reset()
        autotune(
            matrix, "2x4", jobs=1, passes=1, use_plan_cache=False, **_SMALL
        )
        assert counters.tuning_plan_cache_hits == 0
        assert counters.pricing_tasks > 0
        assert counters.pricing_cache_hits == counters.pricing_tasks
        assert counters.kernel_executions == 0

    def test_geometry_changes_plan_key(self, matrix, tune_cache):
        autotune(matrix, "2x4", jobs=1, passes=1, **_SMALL)
        counters.reset()
        autotune(matrix, "4x4", jobs=1, passes=1, **_SMALL)
        assert counters.tuning_plan_cache_hits == 0
        assert counters.tuning_plan_cache_misses == 1

    def test_params_reach_plan_key_and_cache_probe(self, matrix, tune_cache):
        """A re-tune under other cache params misses the plan cache and
        replays the probe through a cache built from those params."""
        custom = DEFAULT_PARAMS.with_overrides(
            cache_line_words=4, l1_shared_latency=6.0
        )
        default = autotune(matrix, "2x4", jobs=1, passes=1, **_SMALL)
        counters.reset()
        plan = autotune(
            matrix, "2x4", params=custom, jobs=1, passes=1, **_SMALL
        )
        assert counters.tuning_plan_cache_hits == 0
        assert counters.tuning_plan_cache_misses == 1

        cols = matrix.cols.astype(np.int64)  # identity order, coo stream
        cache = BankedCache(Geometry.parse("2x4").pes_per_tile, custom)
        cache.run_trace(cols, np.zeros(len(cols), dtype=bool))
        assert plan.baseline["hit_rate"] == cache.hits / len(cols)
        assert plan.baseline["hit_rate"] != default.baseline["hit_rate"]


class TestRuntimeWiring:
    def test_identity_plan_leaves_runtime_unpermuted(self, matrix):
        plan = TuningPlan("identity", 512, "coo", "2x4")
        rt = CoSparseRuntime(matrix, geometry="2x4", plan=plan)
        assert rt.plan is plan
        assert rt.vertex_perm is None
        assert rt.vertex_inverse is None

    def test_plan_permutes_operand(self, matrix):
        counters.reset()
        plan = TuningPlan("degree", 512, "coo", "2x4")
        rt = CoSparseRuntime(matrix, geometry="2x4", plan=plan)
        assert counters.tuning_plans_applied == 1
        perm, inv = rt.vertex_perm, rt.vertex_inverse
        assert sorted(perm.tolist()) == list(range(matrix.n_rows))
        np.testing.assert_array_equal(inv[perm], np.arange(matrix.n_rows))
        # operand really is the permuted matrix
        assert rt.operand.coo.nnz == matrix.nnz
        assert sorted(rt.operand.coo.row_counts()) == sorted(
            matrix.row_counts()
        )

    def test_auto_tune_constructs_and_applies_plan(self, matrix, tune_cache):
        rt = CoSparseRuntime(matrix, geometry="2x4", auto_tune=True)
        assert rt.plan is not None
        assert counters.tuning_runs == 1
        assert counters.tuning_plans_applied == 1

    def test_explicit_plan_skips_autotune(self, matrix, tune_cache):
        plan = TuningPlan("identity", 512, "coo", "2x4")
        CoSparseRuntime(matrix, geometry="2x4", plan=plan, auto_tune=True)
        assert counters.tuning_runs == 0

    def test_default_runtime_untouched(self, matrix):
        rt = CoSparseRuntime(matrix, geometry="2x4")
        assert rt.plan is None
        assert rt.vertex_perm is None


class TestVertexMap:
    def test_identity_runtime(self, matrix):
        from repro.graphs.common import VertexMap

        rt = CoSparseRuntime(matrix, geometry="2x4")
        vm = VertexMap(rt)
        assert vm.identity
        assert vm.vertex(7) == 7
        x = np.arange(5.0)
        assert vm.to_execution(x) is not None
        np.testing.assert_array_equal(vm.to_original(x), x)

    def test_round_trip(self, matrix):
        from repro.graphs.common import VertexMap

        plan = TuningPlan("rcm", 512, "coo", "2x4")
        rt = CoSparseRuntime(matrix, geometry="2x4", plan=plan)
        vm = VertexMap(rt)
        assert not vm.identity
        orig = np.random.default_rng(3).random(matrix.n_rows)
        np.testing.assert_array_equal(
            vm.to_original(vm.to_execution(orig)), orig
        )
        # vertex() agrees with to_execution on a one-hot vector
        v = 13
        onehot = np.zeros(matrix.n_rows)
        onehot[v] = 1.0
        assert vm.to_execution(onehot)[vm.vertex(v)] == 1.0


class TestTuneEnvSwitch:
    def test_tune_requested_parsing(self, monkeypatch):
        from repro.graphs.common import tune_requested

        monkeypatch.delenv("REPRO_TUNE", raising=False)
        assert not tune_requested()
        for falsey in ("", "0", "false", "off", "no"):
            monkeypatch.setenv("REPRO_TUNE", falsey)
            assert not tune_requested()
        monkeypatch.setenv("REPRO_TUNE", "1")
        assert tune_requested()
