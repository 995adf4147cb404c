"""Shared-memory arena: publish/attach round trips and lifecycle."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.parallel.shm import ShmArena, attach


class TestArena:
    def test_publish_attach_round_trip(self):
        arr = np.linspace(0.0, 1.0, 4096)
        with ShmArena() as arena:
            ref = arena.publish(arr)
            view = attach(ref)
            assert np.array_equal(view, arr)
            assert not view.flags.writeable

    def test_publish_memoised_per_buffer(self):
        arr = np.arange(1024, dtype=np.int64)
        with ShmArena() as arena:
            assert arena.publish(arr) is arena.publish(arr)

    def test_distinct_arrays_get_distinct_segments(self):
        with ShmArena() as arena:
            a = arena.publish(np.zeros(128))
            b = arena.publish(np.ones(128))
            assert a.segment != b.segment

    def test_ref_is_picklable_metadata(self):
        import pickle

        with ShmArena() as arena:
            ref = arena.publish(np.zeros((4, 8), dtype=np.float32))
            clone = pickle.loads(pickle.dumps(ref))
            assert clone == ref
            assert clone.shape == (4, 8)
            assert clone.dtype == "float32"

    def test_close_unlinks_segments(self):
        arena = ShmArena()
        ref = arena.publish(np.zeros(256))
        arena.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.segment)

    def test_close_is_idempotent(self):
        arena = ShmArena()
        arena.publish(np.zeros(16))
        arena.close()
        arena.close()


_FIG4_POOLED_PASS = """
from repro.experiments import fig4
fig4.run_fig4(
    scale=16, geometries=fig4.QUICK_GEOMETRIES, matrices=(0, 1), jobs=2
)
"""


def _psm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - no POSIX shm mount
        return set()


class TestResourceTracker:
    """Pool workers share the coordinator's resource tracker, so the
    coordinator's unlink is the one unregister of each segment."""

    def test_pooled_fig4_pass_is_clean(self, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env.update(
            PYTHONPATH=os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            ),
            REPRO_CACHE_DIR=str(tmp_path),
            REPRO_PRICING_CACHE="0",
        )
        before = _psm_segments()
        proc = subprocess.run(
            [sys.executable, "-c", _FIG4_POOLED_PASS],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        noisy = [
            line
            for line in proc.stderr.splitlines()
            if "KeyError" in line or "resource_tracker" in line
        ]
        assert noisy == []
        assert _psm_segments() - before == set()
