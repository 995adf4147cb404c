"""The sweep tasks' seeded-frontier memo (``seeded_frontier``).

A Fig. 4 grid point's IP and OP tasks name one ``{"n", "density",
"seed"}`` spec, and every geometry a matrix is priced on names the same
specs again, so each process builds each frontier once.  The memo must
change no number, and the frontiers it hands out are shared, so they
are read-only.
"""

import numpy as np
import pytest

import repro.parallel.work as work
from repro.experiments import fig4
from repro.workloads import random_frontier


@pytest.fixture(autouse=True)
def fresh_memo(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PRICING_CACHE", "0")
    monkeypatch.setattr(work, "_frontiers", {})


def _counting(monkeypatch):
    calls = []

    def counted(n, density, seed=0):
        calls.append((n, density, seed))
        return random_frontier(n, density, seed=seed)

    monkeypatch.setattr(work, "random_frontier", counted)
    return calls


def _pass():
    return fig4.run_fig4(
        scale=64, geometries=fig4.QUICK_GEOMETRIES, matrices=(0, 1), jobs=1
    )


def test_each_spec_is_built_once_and_rows_are_unchanged(monkeypatch):
    calls = _counting(monkeypatch)
    with_memo = _pass()
    # 2 matrices x 5 densities: one frontier per spec, where every one of
    # the 60 tasks (2 x 3 geometries x 5 densities x IP/OP) built its own.
    assert len(with_memo.rows) == 30
    assert len(calls) == len(set(calls)) == 10
    monkeypatch.setattr(
        work, "seeded_frontier",
        lambda n, density, seed: work.random_frontier(n, density, seed=seed),
    )
    calls.clear()
    without = _pass()
    assert len(calls) == 60
    assert with_memo.rows == without.rows


def test_handed_out_frontiers_are_shared_and_read_only():
    frontier = work.seeded_frontier(500, 0.1, 3)
    assert work.seeded_frontier(500, 0.1, 3) is frontier
    fresh = random_frontier(500, 0.1, seed=3)
    assert np.array_equal(frontier.indices, fresh.indices)
    assert frontier.values.tobytes() == fresh.values.tobytes()
    with pytest.raises(ValueError):
        frontier.values[0] = 1.0
    with pytest.raises(ValueError):
        frontier.indices[0] = 0


def test_oldest_frontiers_leave_past_the_budget(monkeypatch):
    monkeypatch.setattr(work, "_FRONTIER_MEMO_ENTRIES", 15)
    for seed in range(3):
        work.seeded_frontier(100, 0.1, seed)  # 10 entries each
    assert list(work._frontiers) == [(100, 0.1, 1), (100, 0.1, 2)]
    work.seeded_frontier(1000, 1.0, 0)  # alone over budget: kept
    assert list(work._frontiers) == [(100, 0.1, 2), (1000, 1.0, 0)]
