"""Batched-SpMV bench: K frontiers per superstep vs the sequential loop.

Both IP kernels run each column through the same helper, whose cost
scales with the column's active entries, so the sequential loop pays
no per-call structural pass for the batch to amortise.  What the batch
still shares across the K columns of a
:class:`~repro.formats.multivector.MultiVector` is the IP schedule
placement, once per configuration group, and the OP kernel's union CSC
gather; per-column pricing and records stay bit-identical to K
sequential ``spmv()`` calls.  This bench records both wall clocks,
asserts the batch is not slower than the loop, and asserts the outputs
really are bit-identical, so no speedup is ever bought with drift.
"""

import time

import numpy as np
from conftest import show

from repro.core import CoSparseRuntime, SpMVOperand
from repro.experiments.report import ExperimentResult
from repro.graphs import Graph, bfs, bfs_multi
from repro.spmv import spmv_semiring
from repro.workloads import random_frontier, uniform_random

#: Acceptance floor for the K=32 mixed-density superstep: the batch must
#: not be slower than the sequential loop.
MIN_SPEEDUP = 1.0


def _mixed_batch(n, k, rng):
    """K frontiers cycling sparse->dense densities, mixed native formats."""
    cols = []
    for i in range(k):
        d = (0.0005, 0.002, 0.3, 0.9)[i % 4]
        if d < 0.01:
            cols.append(random_frontier(n, d, seed=100 + i))
        else:
            mask = rng.random(n) < d
            cols.append(np.where(mask, rng.uniform(0.5, 1.5, n), 0.0))
    return cols


def test_batched_spmv_vs_sequential_loop(once, full):
    n, nnz = (60_000, 600_000) if not full else (200_000, 2_000_000)
    k = 32

    def run():
        coo = uniform_random(n, nnz=nnz, seed=5)
        operand = SpMVOperand(coo)
        sr = spmv_semiring()
        cols = _mixed_batch(n, k, np.random.default_rng(3))

        rt_seq = CoSparseRuntime(operand, "4x8")
        t0 = time.perf_counter()
        seq = [rt_seq.spmv(c, sr) for c in cols]
        t_seq = time.perf_counter() - t0

        rt_bat = CoSparseRuntime(operand, "4x8")
        t0 = time.perf_counter()
        bat = rt_bat.spmv_batch(cols, sr)
        t_batch = time.perf_counter() - t0

        # The speedup only counts if the batch is bit-identical.
        for a, b in zip(seq, bat):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.touched, b.touched)

        result = ExperimentResult(
            "bench-batch",
            "Batched SpMV (spmv_batch) vs K sequential spmv calls",
            ["workload", "n", "nnz", "k", "seq_ms", "batch_ms", "speedup"],
        )
        speedup = t_seq / t_batch
        result.add(
            workload="spmv-mixed",
            n=n,
            nnz=nnz,
            k=k,
            seq_ms=round(t_seq * 1e3, 1),
            batch_ms=round(t_batch * 1e3, 1),
            speedup=round(speedup, 2),
        )
        assert speedup >= MIN_SPEEDUP, (
            f"batched superstep only {speedup:.2f}x over the sequential "
            f"loop (floor {MIN_SPEEDUP}x)"
        )

        # Multi-source BFS: the driver-level view of the same machinery.
        g = Graph(uniform_random(20_000, nnz=200_000, seed=7), name="bench")
        sources = list(range(8))
        t0 = time.perf_counter()
        runs = [bfs(g, s, geometry="4x8") for s in sources]
        t_seq_bfs = time.perf_counter() - t0
        t0 = time.perf_counter()
        multi = bfs_multi(g, sources, geometry="4x8")
        t_multi = time.perf_counter() - t0
        for q, single in enumerate(runs):
            assert np.array_equal(multi.values[:, q], single.values)
        result.add(
            workload="bfs-multi",
            n=g.n_vertices,
            nnz=g.n_edges,
            k=len(sources),
            seq_ms=round(t_seq_bfs * 1e3, 1),
            batch_ms=round(t_multi * 1e3, 1),
            speedup=round(t_seq_bfs / t_multi, 2),
        )
        return result

    result = once(run)
    show(result)
