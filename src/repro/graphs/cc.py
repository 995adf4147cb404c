"""Connected components via label propagation (extension algorithm).

The paper's framework section lists "BFS, PR, SSSP, CF, etc." — connected
components is the canonical "etc.": it maps onto the same SpMV
abstraction with ``Matrix_Op = min(V[src])`` and a carry on the
destination (every vertex keeps the smallest label seen), iterated until
no label changes.  On directed inputs this computes *weakly* connected
components by symmetrising the adjacency once.

Like BFS/SSSP, the active set shrinks over the run, so the runtime
reconfigures between IP and OP as labels converge.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.runtime import CoSparseRuntime
from ..formats import COOMatrix
from ..spmv.semiring import Semiring
from .common import (
    DEFAULT_GEOMETRY,
    AlgorithmRun,
    VertexMap,
    algorithm_span,
    ensure_runtime,
)
from .frontier import FrontierTrace, frontier_from_mask
from .graph import Graph

__all__ = ["connected_components", "cc_semiring"]


def cc_semiring() -> Semiring:
    """Label propagation: ``min(V[src], V[dst])`` with carry."""

    def combine(a, v_src, v_dst, src_idx, dst_idx):
        return np.array(v_src, copy=True)

    return Semiring(
        "CC",
        combine,
        np.minimum,
        np.inf,
        carry_output=True,
        combine_flops=1,
        absent=np.inf,
    )


def _symmetrised(graph: Graph) -> Graph:
    adj = graph.adjacency
    src = np.concatenate([adj.rows, adj.cols])
    dst = np.concatenate([adj.cols, adj.rows])
    vals = np.ones(2 * adj.nnz)
    coo = COOMatrix.summed(adj.n_rows, adj.n_cols, src, dst, vals)
    return Graph(coo, name=f"{graph.name}+sym")


def connected_components(
    graph: Graph,
    runtime: Optional[CoSparseRuntime] = None,
    geometry=DEFAULT_GEOMETRY,
    max_iters: Optional[int] = None,
    **runtime_kw,
) -> AlgorithmRun:
    """Weakly connected component labels (smallest member vertex id).

    Builds a symmetrised operand unless a prepared ``runtime`` over one
    is supplied; isolated vertices label themselves.
    """
    sym = _symmetrised(graph)
    rt = ensure_runtime(sym, runtime, geometry, **runtime_kw)
    n = graph.n_vertices
    semiring = cc_semiring()
    # Labels are ORIGINAL vertex ids even in execution space, so the
    # propagated minima stay meaningful after mapping back.
    vm = VertexMap(rt)
    labels = vm.to_execution(np.arange(n, dtype=np.float64))
    frontier = frontier_from_mask(np.ones(n, dtype=bool), labels)
    trace = FrontierTrace(n, [])
    cap = max_iters if max_iters is not None else n
    converged = False
    with algorithm_span("cc", graph):
        for _ in range(cap):
            if frontier.nnz == 0:
                converged = True
                break
            trace.record(frontier)
            result = rt.spmv(frontier, semiring, current=labels)
            improved = result.values < labels
            labels = result.values
            frontier = frontier_from_mask(improved, labels)
        else:
            converged = frontier.nnz == 0
    return AlgorithmRun(
        algorithm="cc",
        values=vm.to_original(labels),
        log=rt.log,
        frontier_trace=trace,
        converged=converged,
    )
