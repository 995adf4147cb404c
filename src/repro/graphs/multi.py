"""Multi-source traversals over the batched SpMV path.

Running BFS/SSSP from K roots is the canonical SpMM workload (batched
betweenness pivots, landmark distance sketches, multi-seed reachability):
every superstep advances K independent frontiers over the *same* matrix.
The drivers here keep the K traversals in lockstep —
:meth:`~repro.core.runtime.CoSparseRuntime.spmv_batch` groups each
round's live columns by their decided configuration and runs one batched
kernel per group, which places the static schedule once and runs each
column through the sequential kernel's per-column helper — while
converged columns retire from the batch and stop paying for supersteps
they no longer need.

Each column's values are bit-identical to the corresponding
single-source :func:`~repro.graphs.bfs.bfs` /
:func:`~repro.graphs.sssp.sssp` run, because the batched kernels are
bit-identical to the sequential ones and the per-column driver logic is
the same.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.runtime import CoSparseRuntime
from ..errors import AlgorithmError
from ..formats import MultiVector
from ..spmv.semiring import bfs_semiring, sssp_semiring
from .common import (
    DEFAULT_GEOMETRY,
    AlgorithmRun,
    VertexMap,
    algorithm_span,
    ensure_runtime,
)
from .frontier import FrontierTrace, frontier_from_mask, single_vertex_frontier
from .graph import Graph

__all__ = ["bfs_multi", "sssp_multi"]


def bfs_multi(
    graph: Graph,
    sources: Sequence[int],
    runtime: Optional[CoSparseRuntime] = None,
    geometry=DEFAULT_GEOMETRY,
    max_iters: Optional[int] = None,
    **runtime_kw,
) -> AlgorithmRun:
    """BFS levels from every source; returns an ``(n, K)`` level matrix.

    Column ``q`` equals ``bfs(graph, sources[q]).values`` exactly.  The
    trace records the *total* live-frontier size per superstep.
    """
    sources = [graph.check_source(s) for s in sources]
    if not sources:
        raise AlgorithmError("bfs_multi needs at least one source")
    rt = ensure_runtime(graph, runtime, geometry, **runtime_kw)
    n, k = graph.n_vertices, len(sources)
    semiring = bfs_semiring()
    # Execution vertex space per column; map the matrix back at the end.
    vm = VertexMap(rt)
    levels = np.full((n, k), np.inf)
    frontiers = []
    for q, s in enumerate(sources):
        src = vm.vertex(s)
        levels[src, q] = 0.0
        frontiers.append(single_vertex_frontier(n, src, value=0.0))
    trace = FrontierTrace(n, [])
    cap = max_iters if max_iters is not None else n
    live = list(range(k))
    level = 0.0
    with algorithm_span("bfs_multi", graph, k=k):
        for _ in range(cap):
            live = [q for q in live if frontiers[q].nnz > 0]
            if not live:
                break
            mv = MultiVector(
                [frontiers[q] for q in live], absent=semiring.absent, n=n
            )
            trace.record(mv)
            results = rt.spmv_batch(mv, semiring)
            level += 1.0
            for i, q in enumerate(live):
                newly = results[i].touched & np.isinf(levels[:, q])
                levels[newly, q] = level
                frontiers[q] = frontier_from_mask(newly, levels[:, q])
    # A column converged iff its frontier drained before the cap; the
    # serving coalescer reports the per-query flag to each client.
    column_converged = [f.nnz == 0 for f in frontiers]
    return AlgorithmRun(
        algorithm="bfs_multi",
        values=vm.to_original(levels),
        log=rt.log,
        frontier_trace=trace,
        converged=all(column_converged),
        column_converged=column_converged,
    )


def sssp_multi(
    graph: Graph,
    sources: Sequence[int],
    runtime: Optional[CoSparseRuntime] = None,
    geometry=DEFAULT_GEOMETRY,
    max_iters: Optional[int] = None,
    **runtime_kw,
) -> AlgorithmRun:
    """Shortest distances from every source; returns ``(n, K)`` distances.

    Column ``q`` equals ``sssp(graph, sources[q]).values`` exactly; each
    column relaxes against its own distance vector (the carry semiring's
    per-column ``current``).
    """
    sources = [graph.check_source(s) for s in sources]
    if not sources:
        raise AlgorithmError("sssp_multi needs at least one source")
    if graph.n_edges and graph.adjacency.vals.min() < 0:
        raise AlgorithmError("SSSP requires non-negative edge weights")
    rt = ensure_runtime(graph, runtime, geometry, **runtime_kw)
    n, k = graph.n_vertices, len(sources)
    semiring = sssp_semiring()
    vm = VertexMap(rt)
    dists = []
    frontiers = []
    for s in sources:
        src = vm.vertex(s)
        d = np.full(n, np.inf)
        d[src] = 0.0
        dists.append(d)
        frontiers.append(single_vertex_frontier(n, src, value=0.0))
    trace = FrontierTrace(n, [])
    cap = max_iters if max_iters is not None else n
    live = list(range(k))
    with algorithm_span("sssp_multi", graph, k=k):
        for _ in range(cap):
            live = [q for q in live if frontiers[q].nnz > 0]
            if not live:
                break
            mv = MultiVector(
                [frontiers[q] for q in live], absent=semiring.absent, n=n
            )
            trace.record(mv)
            results = rt.spmv_batch(
                mv, semiring, currents=[dists[q] for q in live]
            )
            for i, q in enumerate(live):
                improved = results[i].values < dists[q]
                dists[q] = results[i].values
                frontiers[q] = frontier_from_mask(improved, dists[q])
    column_converged = [f.nnz == 0 for f in frontiers]
    return AlgorithmRun(
        algorithm="sssp_multi",
        values=vm.to_original(np.stack(dists, axis=1)),
        log=rt.log,
        frontier_trace=trace,
        converged=all(column_converged),
        column_converged=column_converged,
    )
