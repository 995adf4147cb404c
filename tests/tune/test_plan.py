"""TuningPlan and plan-cache tests."""

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware import Geometry
from repro.tune import (
    PlanCache,
    TuningPlan,
    candidate_grid,
    ordering_permutation,
    plan_cache_enabled,
    plan_key,
)
from repro.tune.candidates import grid_signature
from repro.workloads import chung_lu


@pytest.fixture(scope="module")
def matrix():
    return chung_lu(500, 4000, seed=3)


@pytest.fixture
def plan():
    return TuningPlan(
        ordering="degree",
        vblock_width=512,
        geometry="2x4",
        matrix_key="abc123",
        metrics={"cycles": 100.0},
        baseline={"cycles": 110.0},
        candidates=30,
        version="1.0.0",
    )


class TestTuningPlan:
    def test_round_trip(self, plan):
        assert TuningPlan.from_dict(plan.to_dict()) == plan

    def test_json_round_trip(self, plan):
        blob = json.dumps(plan.to_dict())
        assert TuningPlan.from_dict(json.loads(blob)) == plan

    def test_derived_metrics(self, plan):
        assert not plan.is_identity
        assert plan.label == "degree/w512"

    def test_identity_plan(self):
        p = TuningPlan("identity", 512, "2x4")
        assert p.is_identity
        assert p.label == "identity/w512"

    def test_from_dict_rejects_unknown_fields(self, plan):
        data = plan.to_dict()
        data["bogus"] = 1
        with pytest.raises(ConfigurationError):
            TuningPlan.from_dict(data)

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ConfigurationError):
            TuningPlan.from_dict({"ordering": "degree"})

    @pytest.mark.parametrize("data", [None, 5, "plan", [1, 2]])
    def test_from_dict_rejects_non_object(self, data):
        with pytest.raises(ConfigurationError):
            TuningPlan.from_dict(data)

    def test_apply_identity_returns_input(self, matrix):
        p = TuningPlan("identity", 512, "2x4")
        out, perm = p.apply(matrix)
        assert out is matrix and perm is None

    def test_apply_regenerates_exact_permutation(self, matrix):
        p = TuningPlan("rcm", 512, "2x4")
        out, perm = p.apply(matrix)
        np.testing.assert_array_equal(
            perm, ordering_permutation(matrix, "rcm")
        )
        assert out.nnz == matrix.nnz
        # schedule-stable: rows sorted
        assert bool(np.all(np.diff(out.rows) >= 0))


class TestPlanKey:
    def test_deterministic(self, matrix):
        grid = grid_signature(candidate_grid(Geometry(2, 4)))
        assert plan_key(matrix, "2x4", grid) == plan_key(matrix, "2x4", grid)

    def test_sensitive_to_matrix_content(self, matrix):
        grid = grid_signature(candidate_grid(Geometry(2, 4)))
        other = chung_lu(500, 4000, seed=4)
        assert plan_key(matrix, "2x4", grid) != plan_key(other, "2x4", grid)

    def test_sensitive_to_geometry_and_grid(self, matrix):
        grid = grid_signature(candidate_grid(Geometry(2, 4)))
        assert plan_key(matrix, "2x4", grid) != plan_key(matrix, "4x4", grid)
        assert plan_key(matrix, "2x4", grid) != plan_key(
            matrix, "2x4", grid[:-1]
        )


class TestPlanCache:
    def test_round_trip(self, tmp_path, plan):
        cache = PlanCache(root=str(tmp_path))
        assert cache.get("k1") is None
        cache.put("k1", plan)
        assert cache.get("k1") == plan

    def test_entries_and_clear(self, tmp_path, plan):
        cache = PlanCache(root=str(tmp_path))
        cache.put("k1", plan)
        cache.put("k2", plan)
        assert [k for k, _ in cache.entries()] == ["k1", "k2"]
        assert cache.clear() == 2
        assert list(cache.entries()) == []

    def test_corrupt_entry_dropped(self, tmp_path, plan):
        cache = PlanCache(root=str(tmp_path))
        cache.put("k1", plan)
        with open(cache._path("k1"), "w") as f:
            f.write("{not json")
        assert cache.get("k1") is None
        assert not os.path.exists(cache._path("k1"))

    @pytest.mark.parametrize("body", ["null", "5", '"plan"', "[1, 2]"])
    def test_scalar_entry_dropped(self, tmp_path, plan, body):
        cache = PlanCache(root=str(tmp_path))
        cache.put("k1", plan)
        with open(cache._path("k1"), "w") as f:
            f.write(body)
        assert cache.get("k1") is None
        assert not os.path.exists(cache._path("k1"))

    def test_older_schema_entry_dropped(self, tmp_path, plan):
        """A schema-1 plan, which carries a ``storage`` field, fails
        ``from_dict`` and is dropped when ``show`` lists the cache."""
        cache = PlanCache(root=str(tmp_path))
        cache.put("k1", plan)
        old = dict(plan.to_dict(), storage="blocked", schema=1)
        with open(cache._path("k1"), "w") as f:
            json.dump(old, f)
        assert list(cache.entries()) == []
        assert not os.path.exists(cache._path("k1"))

    def test_atomic_write_leaves_no_tmp(self, tmp_path, plan):
        cache = PlanCache(root=str(tmp_path))
        cache.put("k1", plan)
        leftovers = [
            name
            for name in os.listdir(cache.dir)
            if not name.endswith(".json")
        ]
        assert leftovers == []

    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_TUNE_CACHE", raising=False)
        assert plan_cache_enabled()
        monkeypatch.setenv("REPRO_TUNE_CACHE", "0")
        assert not plan_cache_enabled()
