"""PageRank on the CoSPARSE SpMV abstraction.

Table I: ``Matrix_Op = sum(V[src] / deg(src))``, ``Vector_Op =
alpha + (1 - alpha) * V_updated`` — the Ligra formulation, where the
teleport mass ``alpha`` is spread uniformly (``alpha / n`` per vertex in
the normalised variant used here) and dangling mass is not redistributed.
PR "always uses dense vectors" (Section III-D2), so the decision tree
keeps it on the inner product throughout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.runtime import CoSparseRuntime
from ..spmv.semiring import Semiring, pagerank_semiring
from .common import (
    DEFAULT_GEOMETRY,
    AlgorithmRun,
    VertexMap,
    algorithm_span,
    ensure_runtime,
    notify_frontier,
)
from .frontier import FrontierTrace
from .graph import Graph

__all__ = ["pagerank", "pagerank_norm_semiring", "pagerank_semiring_for"]


def pagerank_norm_semiring(
    degrees: np.ndarray, alpha: float, n: int
) -> Semiring:
    """The Table I PR semiring with the teleport term normalised by n.

    ``Vector_Op = alpha/n + (1-alpha) * x`` keeps ``sum(ranks) <= 1``
    (strictly less when dangling vertices absorb mass, matching Ligra).

    A pure function of ``(degrees, alpha, n)`` so a sharded pool worker
    can rebuild the driver's exact semiring from the attached spec
    (:mod:`repro.cluster.work`).
    """
    base = pagerank_semiring(degrees, alpha)

    def vector_op(updated, previous):
        return alpha / n + (1.0 - alpha) * updated

    return Semiring(
        name=base.name,
        combine=base.combine,
        reduce_op=base.reduce_op,
        identity=base.identity,
        vector_op=vector_op,
        combine_flops=base.combine_flops,
        spec={"kind": "pagerank_norm", "alpha": float(alpha), "n": int(n)},
        spec_arrays={"degrees": np.asarray(degrees, dtype=np.float64)},
        prescale=base.prescale,
    )


def pagerank_semiring_for(
    graph: Graph,
    alpha: float = 0.15,
    vertex_map: Optional[VertexMap] = None,
) -> Semiring:
    """:func:`pagerank_norm_semiring` over ``graph``'s out-degrees.

    The combine closes over per-source out-degrees, which index the
    kernel's vertex space — pass the runtime's ``vertex_map`` so a tuned
    (permuted) runtime divides by the right degree.
    """
    degrees = graph.out_degrees()
    if vertex_map is not None:
        degrees = vertex_map.to_execution(degrees)
    return pagerank_norm_semiring(degrees, alpha, graph.n_vertices)


def pagerank(
    graph: Graph,
    runtime: Optional[CoSparseRuntime] = None,
    geometry=DEFAULT_GEOMETRY,
    alpha: float = 0.15,
    max_iters: int = 20,
    tol: float = 1e-7,
    **runtime_kw,
) -> AlgorithmRun:
    """Power iteration until the L1 change drops below ``tol``.

    ``alpha`` is the teleport probability (Ligra's 0.15); ``tol`` follows
    Ligra's epsilon-based termination.
    """
    rt = ensure_runtime(graph, runtime, geometry, **runtime_kw)
    n = graph.n_vertices
    vm = VertexMap(rt)
    semiring = pagerank_semiring_for(graph, alpha, vertex_map=vm)
    # The uniform start is permutation-invariant; the whole iteration
    # runs in execution space and the final ranks map back.
    ranks = np.full(n, 1.0 / n)
    trace = FrontierTrace(n, [])
    converged = False
    with algorithm_span("pagerank", graph, alpha=alpha):
        for _ in range(max_iters):
            trace.sizes.append(n)  # PR's frontier is always every vertex
            result = rt.spmv(ranks, semiring)
            delta = float(np.abs(result.values - ranks).sum())
            ranks = result.values
            notify_frontier(rt, ranks)
            if delta < tol:
                converged = True
                break
    return AlgorithmRun(
        algorithm="pr",
        values=vm.to_original(ranks),
        log=rt.log,
        frontier_trace=trace,
        converged=converged,
    )
