"""Sharded PageRank reuses what its fully active frontiers share.

Every shard runtime reuses its fully active IP accounting and the
coordinator reuses the exchange's traffic matrix.  Ranks must stay
bit-identical to single-node, every iteration must move the bytes the
shards' column masks imply, and the topology must still charge its
per-link counters on every exchange.
"""

import numpy as np
import pytest

from repro.cluster import ShardedRuntime
from repro.cluster.topology import ENTRY_BYTES, topology_for
from repro.experiments.common import table3_graph
from repro.graphs import bfs, pagerank
from repro.spmv.inner import _PATTERN

ITERS = 6


@pytest.fixture(scope="module")
def twitter():
    return table3_graph("twitter", scale=64)


def _full_traffic_bytes(rt):
    """Bytes shard ``p`` sends shard ``q`` when every vertex is active,
    counted afresh from the shards' column masks."""
    traffic = np.zeros((rt.nodes, rt.nodes), dtype=np.int64)
    for q, shard in enumerate(rt.shards):
        owner = np.searchsorted(
            rt.bounds, np.flatnonzero(shard.col_mask), side="right"
        ) - 1
        traffic[:, q] = np.bincount(owner, minlength=rt.nodes)
    np.fill_diagonal(traffic, 0)
    return traffic * ENTRY_BYTES


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pooled"])
@pytest.mark.parametrize("nodes", [2, 4])
def test_sharded_pagerank(twitter, nodes, jobs):
    single = pagerank(twitter, max_iters=ITERS)
    with ShardedRuntime(twitter.operand, nodes, jobs=jobs) as rt:
        run = pagerank(twitter, runtime=rt, max_iters=ITERS)
        assert np.array_equal(run.values, single.values)
        assert len(run.log.records) == ITERS
        reference = topology_for("mesh", nodes)
        expected = _full_traffic_bytes(rt)
        for record in run.log.records[1:]:
            assert record.exchange == reference.exchange(expected)
        # Charged on every call: ITERS - 1 exchanges per link.
        assert rt.topology.link_bytes == reference.link_bytes
        assert rt.topology.link_bytes == {
            (p, q): (ITERS - 1) * int(expected[p, q])
            for p in range(nodes) for q in range(nodes)
            if p != q and expected[p, q]
        }
        if jobs == 1:
            # One column entry, and the prescale column's pattern of ones.
            for shard_rt in rt._runtimes:
                assert len(shard_rt.operand.ip_memo) == 2
                assert _PATTERN in shard_rt.operand.ip_memo


def test_partial_frontiers_after_full_ones_count_afresh(twitter):
    with ShardedRuntime(twitter.operand, 4, jobs=1) as rt:
        pagerank(twitter, runtime=rt, max_iters=3)
        rt.reset_log()
        after = bfs(twitter, 0, runtime=rt)
    with ShardedRuntime(twitter.operand, 4, jobs=1) as fresh_rt:
        fresh = bfs(twitter, 0, runtime=fresh_rt)
    assert np.array_equal(after.values, fresh.values)
    assert [r.exchange for r in after.log.records] == [
        r.exchange for r in fresh.log.records
    ]
