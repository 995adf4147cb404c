"""Breadth-first search on the CoSPARSE SpMV abstraction.

Table I: ``Matrix_Op = min(V[src])`` — an active source forwards its
label, destinations keep the minimum, and only previously unvisited
destinations join the next frontier.  The frontier swells and shrinks
over the run, which is exactly what drives IP/OP switching ("for BFS and
SSSP ... the vector changes from sparse to dense and then back to
sparse", Section III-D2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.runtime import CoSparseRuntime
from ..spmv.semiring import bfs_semiring
from .common import (
    DEFAULT_GEOMETRY,
    AlgorithmRun,
    VertexMap,
    algorithm_span,
    ensure_runtime,
    notify_frontier,
)
from .frontier import FrontierTrace, frontier_from_mask, single_vertex_frontier
from .graph import Graph

__all__ = ["bfs"]


def bfs(
    graph: Graph,
    source: int,
    runtime: Optional[CoSparseRuntime] = None,
    geometry=DEFAULT_GEOMETRY,
    max_iters: Optional[int] = None,
    **runtime_kw,
) -> AlgorithmRun:
    """BFS levels from ``source``; unreachable vertices stay ``inf``.

    Parameters mirror every driver in this package: pass a prepared
    :class:`~repro.core.runtime.CoSparseRuntime` to control
    policy/geometry/objective, or let the driver build one.
    """
    source = graph.check_source(source)
    rt = ensure_runtime(graph, runtime, geometry, **runtime_kw)
    n = graph.n_vertices
    semiring = bfs_semiring()
    # A tuned runtime permutes its operand: run in execution vertex
    # space and map the levels back to original ids at the end.
    vm = VertexMap(rt)
    src = vm.vertex(source)
    levels = np.full(n, np.inf)
    levels[src] = 0.0
    frontier = single_vertex_frontier(n, src, value=0.0)
    trace = FrontierTrace(n, [])
    cap = max_iters if max_iters is not None else n
    level = 0.0
    converged = False
    with algorithm_span("bfs", graph, source=source):
        for _ in range(cap):
            if frontier.nnz == 0:
                converged = True
                break
            trace.record(frontier)
            result = rt.spmv(frontier, semiring)
            newly = result.touched & np.isinf(levels)
            level += 1.0
            levels[newly] = level
            frontier = frontier_from_mask(newly, levels)
            notify_frontier(rt, frontier)
        else:
            converged = frontier.nnz == 0
    return AlgorithmRun(
        algorithm="bfs",
        values=vm.to_original(levels),
        log=rt.log,
        frontier_trace=trace,
        converged=converged,
    )
