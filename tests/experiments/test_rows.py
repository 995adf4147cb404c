"""Fig. 4, 5 and 6 rows priced one task per (matrix, system, kernel).

A row task prices every density of its grid row profile-only.  The rows
must still equal the per-point prices of one executed kernel per task:
the digests below were taken from that code (one task per point, every
kernel run in full) on the same grids, and must hold from a cold and a
warm pricing cache, serially and on a pool.
"""

import hashlib
import json

import pytest

from repro.experiments import fig4, fig5, fig6
from repro.parallel import SweepScheduler

#: Driver grid -> sha256 of its rows as sorted-key JSON (floats by repr).
_PINNED = {
    "fig4": (
        lambda jobs: fig4.run_fig4(
            scale=64, geometries=fig4.QUICK_GEOMETRIES, matrices=(0, 1),
            jobs=jobs,
        ),
        "284762819da7cf13e3eadd32e00ba315daa8f0f26002d96e0f52ae57ee73a0df",
    ),
    "fig5": (
        lambda jobs: fig5.run_fig5(
            scale=64, geometries=("4x8", "8x16"), matrices=(0, 1), jobs=jobs
        ),
        "ed826b63bfc1b1bc0c848be6dbc3cc55bfe83f56558ea074d22b207b59fff24b",
    ),
    "fig6": (
        lambda jobs: fig6.run_fig6(
            scale=64, geometries=("4x8", "8x16"), matrices=(0, 1), jobs=jobs
        ),
        "e240c1442475af85e2887c20a7ead8b6024a342f75589c5d8093dbc028727cf0",
    ),
}


def _digest(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


@pytest.fixture
def caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_PRICING_CACHE", "1")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


@pytest.mark.parametrize("figure", sorted(_PINNED))
@pytest.mark.parametrize("jobs", [1, 2])
def test_rows_equal_the_per_point_prices(figure, jobs, caches, monkeypatch):
    run, pinned = _PINNED[figure]
    maps = []
    real = SweepScheduler.map

    def spy(self, tasks):
        results = real(self, tasks)
        maps.append(dict(self.last_stats))
        return results

    monkeypatch.setattr(SweepScheduler, "map", spy)
    cold = run(jobs)
    warm = run(jobs)
    assert _digest(cold.rows) == pinned
    assert _digest(warm.rows) == pinned
    # One task per (matrix, system, kernel): two per (matrix, system).
    n_rows = len(cold.rows) // len({r["vector_density"] for r in cold.rows})
    assert maps[0]["dispatched"] == 2 * n_rows
    assert maps[1]["cache_hits"] == 2 * n_rows


def test_row_task_results_hold_one_point_per_frontier(caches):
    from repro.experiments.common import fig4_matrix, price_task
    from repro.hardware import HWMode
    from repro.parallel.work import price_config

    coo = fig4_matrix(0, scale=64)
    specs = [
        {"n": coo.n_cols, "density": d, "seed": 7 + i}
        for i, d in enumerate((0.005, 0.04))
    ]
    row = price_task("ip", HWMode.SC, "4x8", coo, specs)
    points = price_config(row.payload, row.arrays)["points"]
    singles = [
        price_config(task.payload, task.arrays)["points"]
        for task in (
            price_task("ip", HWMode.SC, "4x8", coo, [spec]) for spec in specs
        )
    ]
    assert [[p] for p in points] == singles


def test_a_task_carries_one_explicit_frontier(caches):
    import numpy as np

    from repro.experiments.common import fig4_matrix, price_task
    from repro.hardware import HWMode
    from repro.parallel.work import price_config

    coo = fig4_matrix(0, scale=64)
    explicit = {
        "frontier_idx": np.arange(4, dtype=np.int64),
        "frontier_vals": np.ones(4),
    }
    task = price_task(
        "ip", HWMode.SC, "4x8", coo, [{"n": coo.n_cols}] * 2, explicit
    )
    with pytest.raises(ValueError, match="one explicit frontier"):
        price_config(task.payload, task.arrays)
