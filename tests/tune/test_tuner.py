"""Autotuner tests: grid, selection, caching, telemetry, runtime wiring."""

import errno
import os

import numpy as np
import pytest

from repro.core import CoSparseRuntime
from repro.errors import ConfigurationError
from repro.hardware import DEFAULT_PARAMS, Geometry
from repro.obs.events import validate_record
from repro.obs.tracer import Tracer, override
from repro.parallel.scheduler import SweepScheduler
from repro.perf import counters
from repro.tune import (
    ORDERINGS,
    PlanCache,
    TuningPlan,
    autotune,
    candidate_grid,
    default_widths,
)
from repro.tune import plan as plan_module
from repro.tune.tuner import PROBE_MODES
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


@pytest.fixture
def uncached(tune_cache, monkeypatch):
    """Plan and pricing caches off: every tune prices every probe."""
    monkeypatch.setenv("REPRO_PRICING_CACHE", "0")
    monkeypatch.setenv("REPRO_TUNE_CACHE", "0")
    return tune_cache


#: Restricted grid keeping autotune tests inside the fast subset:
#: the identity baseline (SPM-fit width) + identity and degree orderings
#: at one narrower width.
_SMALL = dict(orderings=("identity", "degree"), widths=(256,))


def _fake_cycles(cycles_of):
    """A ``SweepScheduler.map`` stand-in pricing probe ``i`` at
    ``cycles_of(i)`` without running a kernel."""

    def fake_map(self, tasks):
        return [
            {"points": [{"cycles": float(cycles_of(i))}]}
            for i in range(len(tasks))
        ]

    return fake_map


class TestCandidateGrid:
    def test_baseline_first(self):
        geo = Geometry(2, 4)
        grid = candidate_grid(geo)
        first = grid[0]
        assert first.is_identity
        assert first.vblock_width == default_widths(geo, DEFAULT_PARAMS)[0]

    def test_full_grid_size(self):
        geo = Geometry(2, 4)
        widths = default_widths(geo, DEFAULT_PARAMS)
        # baseline + orderings x widths minus the baseline dup
        expected = len(ORDERINGS) * len(widths)
        assert len(candidate_grid(geo)) == expected

    def test_orderings_cover_identity_plus_methods(self):
        assert ORDERINGS == ("identity",) + ORDERING_METHODS

    def test_validation(self):
        geo = Geometry(2, 4)
        with pytest.raises(ConfigurationError):
            candidate_grid(geo, orderings=("hilbert",))
        with pytest.raises(ConfigurationError):
            candidate_grid(geo, widths=(0,))

    def test_labels_unique(self):
        grid = candidate_grid(Geometry(2, 4))
        labels = [c.label for c in grid]
        assert len(labels) == len(set(labels))


class TestAutotune:
    def test_returns_valid_plan(self, matrix, tune_cache):
        plan = autotune(matrix, "2x4", jobs=1, **_SMALL)
        assert plan.ordering in ORDERINGS
        assert plan.vblock_width > 0
        assert plan.geometry == "2x4"
        assert plan.candidates == 3  # baseline + {identity, degree} x 256
        assert set(plan.baseline) == {"cycles"}
        assert set(plan.metrics) == {"cycles"}

    def test_never_loses_to_baseline(self, matrix, tune_cache):
        """The winner's modelled probe cycles never exceed identity's."""
        plan = autotune(matrix, "2x4", jobs=1, **_SMALL)
        assert plan.metrics["cycles"] <= plan.baseline["cycles"]

    def test_accepts_graph_and_operand(self, matrix, tune_cache):
        """Graph / operand / raw COO of the same matrix unwrap to the
        same plan key (the second and third calls are plan-cache hits)."""
        from repro.graphs import Graph

        g = Graph(matrix)
        a = autotune(g, "2x4", jobs=1, **_SMALL)
        b = autotune(g.operand, "2x4", jobs=1, **_SMALL)
        c = autotune(g.operand.coo, "2x4", jobs=1, **_SMALL)
        assert a.to_dict() == b.to_dict() == c.to_dict()
        assert counters.tuning_plan_cache_hits == 2

    def test_rejects_non_matrix(self, tune_cache):
        with pytest.raises(ConfigurationError):
            autotune([[1, 0], [0, 1]], "2x4")

    def test_warm_retune_hits_plan_cache(self, matrix, tune_cache):
        """Acceptance: a warm second tuning run executes ZERO pricing
        kernels — the plan cache short-circuits the whole evaluation."""
        cold = autotune(matrix, "2x4", jobs=1, **_SMALL)
        assert counters.tuning_plan_cache_hits == 0
        assert counters.tuning_plan_cache_misses == 1
        assert counters.tuning_candidates == 3
        assert counters.pricing_tasks > 0

        counters.reset()
        warm = autotune(matrix, "2x4", jobs=1, **_SMALL)
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
            matrix, "2x4", jobs=1, use_plan_cache=False, **_SMALL
        )
        counters.reset()
        autotune(
            matrix, "2x4", jobs=1, use_plan_cache=False, **_SMALL
        )
        assert counters.tuning_plan_cache_hits == 0
        assert counters.pricing_tasks > 0
        assert counters.pricing_cache_hits == counters.pricing_tasks
        assert counters.kernel_executions == 0

    def test_geometry_changes_plan_key(self, matrix, tune_cache):
        autotune(matrix, "2x4", jobs=1, **_SMALL)
        counters.reset()
        autotune(matrix, "4x4", jobs=1, **_SMALL)
        assert counters.tuning_plan_cache_hits == 0
        assert counters.tuning_plan_cache_misses == 1

    def test_params_reach_plan_key_and_cache_probe(self, matrix, tune_cache):
        """A re-tune under other cache params misses the plan cache,
        misses the probes' pricing-cache entries, and prices its probes
        through a model built from those params."""
        custom = DEFAULT_PARAMS.with_overrides(
            cache_line_words=4, l1_shared_latency=6.0
        )
        default = autotune(matrix, "2x4", jobs=1, **_SMALL)
        counters.reset()
        plan = autotune(matrix, "2x4", params=custom, jobs=1, **_SMALL)
        assert counters.tuning_plan_cache_hits == 0
        assert counters.tuning_plan_cache_misses == 1
        assert counters.pricing_cache_hits == 0
        assert plan.baseline["cycles"] != default.baseline["cycles"]

    def test_scalar_plan_entry_is_dropped_and_retuned(
        self, matrix, tune_cache
    ):
        """A plan file holding a JSON scalar is a corrupt entry: the
        tune re-tunes over it instead of raising."""
        cold = autotune(matrix, "2x4", jobs=1, **_SMALL)
        path = PlanCache()._path(cold.matrix_key)
        for body in ("null", "5", '"plan"', "[1, 2]"):
            with open(path, "w") as f:
                f.write(body)
            counters.reset()
            again = autotune(matrix, "2x4", jobs=1, **_SMALL)
            assert counters.tuning_plan_cache_misses == 1
            assert again.to_dict() == cold.to_dict()
            assert PlanCache().get(cold.matrix_key) == cold

    def test_transient_read_error_keeps_plan(
        self, matrix, tune_cache, monkeypatch
    ):
        """An ``EMFILE`` opening a good plan is a miss: the file stays
        and the tune completes."""
        cold = autotune(matrix, "2x4", jobs=1, **_SMALL)
        path = PlanCache()._path(cold.matrix_key)
        with open(path) as f:
            before = f.read()

        def emfile_on_plan(name, *args, **kwargs):
            if name == path:
                raise OSError(errno.EMFILE, "Too many open files")
            return open(name, *args, **kwargs)

        monkeypatch.setattr(plan_module, "open", emfile_on_plan, raising=False)
        assert PlanCache().get(cold.matrix_key) is None
        with open(path) as f:
            assert f.read() == before
        counters.reset()
        again = autotune(matrix, "2x4", jobs=1, **_SMALL)
        assert counters.tuning_plan_cache_misses == 1
        assert again.to_dict() == cold.to_dict()
        assert os.path.exists(path)


class TestSelection:
    """The pick: fewest modelled probe cycles, identity on every tie."""

    def test_cold_plan_is_deterministic_across_jobs(self, matrix, uncached):
        a = autotune(matrix, "2x4", jobs=1)
        b = autotune(matrix, "2x4", jobs=2)
        assert a.to_dict() == b.to_dict()
        assert a.metrics["cycles"] <= a.baseline["cycles"]

    def test_uncached_tune_prices_every_probe(self, matrix, uncached):
        plan = autotune(matrix, "2x4", jobs=1, **_SMALL)
        probes = len(PROBE_MODES) * plan.candidates
        assert counters.pricing_tasks == probes
        assert counters.kernel_profile_only == probes
        assert counters.pricing_cache_hits == 0
        assert counters.trace_accesses == 0

    def test_winner_is_argmin_of_probe_cycles(
        self, matrix, uncached, monkeypatch
    ):
        """Each candidate costs its better mode; the cheapest wins."""
        grid = candidate_grid(Geometry.parse("2x4"), **_SMALL)
        modes = len(PROBE_MODES)
        # Probe i prices candidate i // modes.  Every candidate costs
        # 100 in its first mode; the last one costs 40 in its second.
        cheap = len(grid) * modes - 1
        monkeypatch.setattr(
            SweepScheduler,
            "map",
            _fake_cycles(lambda i: 40.0 if i == cheap else 100.0),
        )
        plan = autotune(matrix, "2x4", jobs=1, **_SMALL)
        assert plan.label == grid[-1].label
        assert plan.metrics == {"cycles": 40.0}
        assert plan.baseline == {"cycles": 100.0}

    def test_identity_wins_ties(self, matrix, uncached, monkeypatch):
        monkeypatch.setattr(SweepScheduler, "map", _fake_cycles(lambda i: 7.0))
        plan = autotune(matrix, "2x4", jobs=1)
        grid = candidate_grid(Geometry.parse("2x4"))
        assert plan.label == grid[0].label
        assert plan.is_identity
        assert plan.metrics == plan.baseline == {"cycles": 7.0}


class TestTuningEvent:
    def test_cold_and_warm_tunes_emit_valid_events(self, matrix, tune_cache):
        tracer = Tracer()
        with override(tracer):
            cold = autotune(matrix, "2x4", jobs=1, **_SMALL)
            autotune(matrix, "2x4", jobs=1, **_SMALL)
        events = tracer.event_records("tuning")
        assert [e["plan_cache_hit"] for e in events] == [False, True]
        for event in events:
            assert validate_record(event) == []
            assert event["cycles"] == cold.metrics["cycles"]
            assert event["baseline_cycles"] == cold.baseline["cycles"]
            assert event["ordering"] == cold.ordering
            assert event["vblock_width"] == cold.vblock_width


class TestRuntimeWiring:
    def test_identity_plan_leaves_runtime_unpermuted(self, matrix):
        plan = TuningPlan("identity", 512, "2x4")
        rt = CoSparseRuntime(matrix, geometry="2x4", plan=plan)
        assert rt.plan is plan
        assert rt.vertex_perm is None
        assert rt.vertex_inverse is None

    def test_plan_permutes_operand(self, matrix):
        counters.reset()
        plan = TuningPlan("degree", 512, "2x4")
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
        plan = TuningPlan("identity", 512, "2x4")
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

        plan = TuningPlan("rcm", 512, "2x4")
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
