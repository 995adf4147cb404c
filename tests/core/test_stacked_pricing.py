"""A sweep row and a batch group are each priced in one stacked solve.

``repro.perf`` counts the analytic model's solves (``pricing_solves``)
and the profiles they price (``pricing_profiles``).  A quick Fig. 4
pass over matrices 0-3 (the grid of the e2e ``sweep`` workload, at a
smaller scale) prices 24 rows of 5 densities, so it makes 24 solves of
120 profiles, serially and on a pool whose workers send their counts
back.  A ``bfs_multi`` superstep prices each batch group in one solve.
"""

import numpy as np
import pytest

from repro.experiments import fig4
from repro.graphs import Graph, bfs_multi
from repro.perf import counters
from repro.workloads import chung_lu


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_fig4_pass_prices_each_row_in_one_solve(jobs, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_PRICING_CACHE", "0")
    monkeypatch.setenv("REPRO_JOBS", jobs)
    before = counters.snapshot()
    result = fig4.run_fig4(
        scale=64, geometries=fig4.QUICK_GEOMETRIES, matrices=(0, 1, 2, 3)
    )
    delta = counters.since(before)
    # 4 matrices x 3 systems x 5 densities, each point priced IP and OP.
    assert len(result.rows) == 60
    assert delta.get("pricing_solves") == 24
    assert delta.get("pricing_profiles") == 120


def test_bfs_multi_prices_each_batch_group_in_one_solve():
    graph = Graph(chung_lu(2000, 16_000, seed=5), name="g")
    sources = np.argsort(-graph.out_degrees(), kind="stable")[:6].tolist()
    before = counters.snapshot()
    run = bfs_multi(graph, sources, geometry="4x8")
    delta = counters.since(before)
    columns = [r for r in run.log if r.batch_id is not None]
    groups = {(r.batch_id, r.config_label) for r in columns}
    assert len(columns) == len(run.log)
    assert len(groups) < len(columns)  # some group holds several columns
    assert delta.get("pricing_solves", 0) <= len(groups)
    assert delta.get("pricing_profiles") == len(columns)
