"""Reference traversal for the reordering differential tests.

:func:`reference_discovery_order` is the original per-reseed loop of
:func:`repro.workloads.reorder._discovery_order`: every exhausted
frontier rescans the visited mask for its unvisited vertices and, for
the Cuthill-McKee discipline, argsorts them by degree.  It costs
O(n) per reseed, but it states the reseed rule directly, so the
library's one-sort cursor version must reproduce it exactly.
"""

from typing import Optional

import numpy as np


def reference_discovery_order(
    n: int,
    indptr: np.ndarray,
    dst: np.ndarray,
    source: int,
    degrees: Optional[np.ndarray] = None,
) -> np.ndarray:
    visited = np.zeros(n, dtype=bool)
    out = np.empty(n, dtype=np.int64)
    count = 0
    frontier = np.asarray([source], dtype=np.int64)
    visited[source] = True
    while count < n:
        if len(frontier) == 0:
            rest = np.nonzero(~visited)[0]
            if degrees is not None:
                rest = rest[np.argsort(degrees[rest], kind="stable")]
            frontier = rest[:1]
            visited[frontier] = True
        out[count : count + len(frontier)] = frontier
        count += len(frontier)
        nxt = []
        for u in frontier.tolist():
            nbrs = dst[indptr[u] : indptr[u + 1]]
            fresh = nbrs[~visited[nbrs]]
            if len(fresh):
                fresh = np.unique(fresh)
                if degrees is not None:
                    fresh = fresh[np.argsort(degrees[fresh], kind="stable")]
                visited[fresh] = True
                nxt.append(fresh)
        frontier = np.concatenate(nxt) if nxt else np.zeros(0, dtype=np.int64)
    return out
