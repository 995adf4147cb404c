"""Distributed runtime bench: wall-clock speedup and bit-identity.

Runs PageRank on the large suite graphs single-node, then through a
4-shard :class:`~repro.cluster.ShardedRuntime` whose shard kernels fan
out to a 4-worker pool (one persistent session: the shard matrices are
pinned to it, published to shared memory once and shipped by reference
whatever their size, while each superstep's frontier and semiring
arrays travel inline).  Wall-clock times, the modeled network share,
and the speedup land in the persisted bench JSON and the bench history
(``artifacts/bench-history.jsonl``) so ``make bench-regress`` gates on
them.

The >= 1.8x speedup assertion only fires on machines that can actually
host the four shard workers (``os.sched_getaffinity``) — on fewer cores
the pool merely time-slices and the measurements are recorded without
judging them.  The bit-identity assertion is unconditional: distributed
ranks must equal single-node exactly, in original vertex ids.
"""

import os
import time

import numpy as np
from conftest import show

from repro.cluster import ShardedRuntime
from repro.experiments.common import table3_graph
from repro.experiments.report import ExperimentResult
from repro.graphs import pagerank

NODES = 4
GRAPHS = ("livejournal", "pokec")
TARGET_SPEEDUP = 1.8


def test_cluster_pagerank_speedup(once, full):
    scale = 4 if full else 16

    def run_all():
        result = ExperimentResult(
            experiment="cluster_bench",
            title=(
                f"Distributed PageRank wall clock at K={NODES} "
                "(mesh fabric, nnz row shards)"
            ),
            columns=[
                "graph",
                "nodes",
                "single_s",
                "cluster_s",
                "speedup",
                "network_pct",
                "identical",
            ],
        )
        for name in GRAPHS:
            graph = table3_graph(name, scale=scale)
            # Warm the workload cache and numpy dispatch paths so both
            # timed runs start from the same state.
            pagerank(graph, max_iters=2)
            t0 = time.perf_counter()
            base = pagerank(graph)
            single_s = time.perf_counter() - t0
            with ShardedRuntime(graph.operand, NODES, jobs=NODES) as rt:
                # Warm the pool: fork workers, publish shards to shm,
                # fill the per-shard runtime memos.
                pagerank(graph, runtime=rt, max_iters=2)
                t0 = time.perf_counter()
                run = pagerank(graph, runtime=rt)
                cluster_s = time.perf_counter() - t0
            log = rt.log
            result.add(
                graph=name,
                nodes=NODES,
                single_s=round(single_s, 4),
                cluster_s=round(cluster_s, 4),
                speedup=round(single_s / cluster_s, 4),
                network_pct=round(
                    100.0 * log.total_network_cycles / log.total_cycles, 3
                ),
                identical=bool(np.array_equal(base.values, run.values)),
            )
            result.timings[f"{name}_single_s"] = round(single_s, 4)
            result.timings[f"{name}_cluster_s"] = round(cluster_s, 4)
        return result

    result = once(run_all)
    show(result)

    # --- the merge contract, asserted unconditionally -----------------
    for row in result.rows:
        assert row["identical"], (
            f"{row['graph']}: distributed ranks differ from single-node"
        )

    # --- the speedup claim, where the machine can host the workers ----
    speedups = {row["graph"]: row["speedup"] for row in result.rows}
    print(
        f"\nK={NODES} speedups: "
        + ", ".join(f"{g}={s:.2f}x" for g, s in speedups.items())
    )
    if len(os.sched_getaffinity(0)) >= NODES:
        for graph_name, speedup in speedups.items():
            assert speedup >= TARGET_SPEEDUP, (
                f"{graph_name}: expected >= {TARGET_SPEEDUP}x at "
                f"K={NODES}, got {speedup:.2f}x"
            )
