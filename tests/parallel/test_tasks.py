"""Task descriptors and the content-addressed cache key."""

import numpy as np
import pytest

from repro.parallel import PricingTask, array_digest, task_key


@pytest.fixture
def task():
    return PricingTask(
        fn="repro.parallel.work:price_config",
        payload={"algorithm": "ip", "mode": "SC", "n": 64},
        arrays={"rows": np.arange(8, dtype=np.int64)},
    )


class TestArrayDigest:
    def test_stable_across_copies(self):
        a = np.linspace(0.0, 1.0, 17)
        assert array_digest(a) == array_digest(a.copy())

    def test_sensitive_to_values_dtype_and_shape(self):
        a = np.zeros(6)
        assert array_digest(a) != array_digest(np.ones(6))
        assert array_digest(a) != array_digest(np.zeros(6, dtype=np.float32))
        assert array_digest(a) != array_digest(np.zeros((2, 3)))


class TestTaskKey:
    def test_deterministic(self, task):
        again = PricingTask(
            task.fn, dict(task.payload), {k: v.copy() for k, v in task.arrays.items()}
        )
        assert task_key(task) == task_key(again)

    def test_payload_order_irrelevant(self, task):
        reordered = PricingTask(
            task.fn, {"n": 64, "mode": "SC", "algorithm": "ip"}, task.arrays
        )
        assert task_key(task) == task_key(reordered)

    def test_payload_change_changes_key(self, task):
        other = PricingTask(task.fn, {**task.payload, "n": 65}, task.arrays)
        assert task_key(task) != task_key(other)

    def test_array_change_changes_key(self, task):
        other = PricingTask(
            task.fn, task.payload, {"rows": np.arange(1, 9, dtype=np.int64)}
        )
        assert task_key(task) != task_key(other)

    def test_fn_change_changes_key(self, task):
        other = PricingTask("repro.parallel.work:poison", task.payload, task.arrays)
        assert task_key(task) != task_key(other)

    def test_precomputed_digests_match(self, task):
        digests = {k: array_digest(v) for k, v in task.arrays.items()}
        assert task_key(task, digests) == task_key(task)


class TestResolveArrays:
    """Inline arrays reach a task with numpy's builtin dtypes."""

    def test_unpickled_array_gets_the_builtin_dtype(self):
        import pickle

        from repro.parallel.work import resolve_arrays

        sent = np.array([1.5, -0.0, np.nan, 5e-324])
        arrived = pickle.loads(pickle.dumps(sent))
        assert arrived.dtype is not np.dtype(np.float64)  # a fresh instance
        resolved = resolve_arrays({"v": arrived})["v"]
        assert resolved.dtype is np.dtype(np.float64)
        assert np.shares_memory(resolved, arrived)  # a view, not a copy
        assert resolved.tobytes() == sent.tobytes()

    def test_structured_array_passes_unchanged(self):
        import pickle

        from repro.parallel.work import resolve_arrays

        rec = pickle.loads(pickle.dumps(np.zeros(2, dtype=[("a", "f8"), ("b", "i4")])))
        assert resolve_arrays({"r": rec})["r"] is rec
