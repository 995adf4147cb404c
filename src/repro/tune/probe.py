"""Representative SpMV probes the tuner prices per candidate.

Both probes are plain pricing-task functions (addressed as
``repro.tune.probe:<name>``) so they run through
:class:`~repro.parallel.sweep.SweepScheduler` like any other pricing
work: fanned out across workers, and — because they are pure functions
of their payload and arrays — cached in the persistent pricing cache.
A warm re-tune of an unchanged matrix therefore executes *zero* probe
kernels.

``cache_probe``
    Replays the vector-gather column stream of one full-frontier SpMV
    through a trace-mode :class:`~repro.hardware.cache.BankedCache`
    sized like one tile's shared L1 and built from the tuned
    ``params``.  The stream order follows the candidate's storage:
    ``coo``/``hybrid`` stream in stored (row-major) order, ``blocked``
    streams vblock-major (the
    :class:`~repro.formats.blocked.BlockedCOO` schedule).  ``hybrid``
    additionally pins the first vblock's vector segment in the SPM:
    gathers of columns below the vblock width count as guaranteed hits
    and never touch the cache.

``wall_probe``
    A functional host-side SpMV (flat multiply-gather plus bincount
    scatter) over the candidate's stream order, best-of-``passes`` wall
    clock.  Host timing is allowed here (``repro/tune/`` is on the R4
    wall-clock allowlist) because the measurement only scores layouts —
    it never feeds the cycle model — and caching makes warm runs
    deterministic.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..errors import ConfigurationError
from ..hardware import DEFAULT_PARAMS, Geometry, HardwareParams
from ..hardware.cache import BankedCache

__all__ = ["cache_probe", "wall_probe", "stream_order"]

#: Seed for the wall probe's dense input vector (content is irrelevant
#: to timing; a fixed seed keeps the task payload — and so the pricing
#: cache key — stable).
WALL_PROBE_SEED = 20210607

#: Default best-of passes for the wall probe.
DEFAULT_WALL_PASSES = 3


def stream_order(
    cols: np.ndarray, storage: str, width: int
) -> Optional[np.ndarray]:
    """Entry processing order for a storage variant (None = stored order).

    ``blocked`` re-sorts entries vblock-major with a stable key, exactly
    the :class:`~repro.formats.blocked.BlockedCOO` schedule for a
    single-partition matrix; ``coo`` and ``hybrid`` keep stored order.
    """
    if storage in ("coo", "hybrid"):
        return None
    if storage == "blocked":
        if width <= 0:
            raise ConfigurationError(
                f"vblock width must be positive, got {width}"
            )
        return np.argsort(cols // width, kind="stable")
    raise ConfigurationError(
        f"unknown storage {storage!r}; expected coo, blocked or hybrid"
    )


def _probe_arrays(payload: dict, arrays: Dict[str, np.ndarray]):
    missing = {"coo_rows", "coo_cols", "coo_vals"} - set(arrays)
    if missing:
        raise ConfigurationError(
            f"probe task is missing arrays {sorted(missing)}"
        )
    width = int(payload["vblock_width"])
    if width <= 0:
        raise ConfigurationError(
            f"vblock width must be positive, got {width}"
        )
    return (
        np.asarray(arrays["coo_rows"]),
        np.asarray(arrays["coo_cols"]),
        np.asarray(arrays["coo_vals"]),
        width,
        str(payload["storage"]),
    )


def cache_probe(payload: dict, arrays: Dict[str, np.ndarray]) -> dict:
    """Modelled vector-gather hit rate for one candidate layout.

    Payload: ``geometry`` (name), ``vblock_width``, ``storage``,
    optional ``params`` (HardwareParams fields; absent for
    ``DEFAULT_PARAMS``).  Arrays: the candidate-ordered COO triple.
    Returns ``{"hit_rate", "accesses", "pinned_hits"}``.
    """
    _, cols, _, width, storage = _probe_arrays(payload, arrays)
    geometry = Geometry.parse(payload["geometry"])
    order = stream_order(cols, storage, width)
    addrs = cols if order is None else cols[order]
    pinned = 0
    if storage == "hybrid":
        hot = addrs < width
        pinned = int(np.count_nonzero(hot))
        addrs = addrs[~hot]
    spec = payload.get("params")
    params = DEFAULT_PARAMS if spec is None else HardwareParams(**spec)
    cache = BankedCache(geometry.pes_per_tile, params)
    if len(addrs):
        cache.run_trace(
            addrs.astype(np.int64), np.zeros(len(addrs), dtype=bool)
        )
    total = int(len(cols))
    hits = int(cache.hits) + pinned
    return {
        "hit_rate": hits / total if total else 1.0,
        "accesses": total,
        "pinned_hits": pinned,
    }


def wall_probe(payload: dict, arrays: Dict[str, np.ndarray]) -> dict:
    """Functional host SpMV wall clock for one candidate layout.

    Payload: ``vblock_width``, ``storage``, ``shape`` ([rows, cols]),
    optional ``passes``.  Arrays: the candidate-ordered COO triple.
    Returns ``{"wall_s", "passes"}`` with the best-of-passes time.
    """
    rows, cols, vals, width, storage = _probe_arrays(payload, arrays)
    n_rows, n_cols = (int(s) for s in payload["shape"])
    passes = int(payload.get("passes", DEFAULT_WALL_PASSES))
    if passes <= 0:
        raise ConfigurationError(f"passes must be positive, got {passes}")
    order = stream_order(cols, storage, width)
    if order is not None:
        rows = rows[order]
        cols = cols[order]
        vals = vals[order]
    x = np.random.default_rng(WALL_PROBE_SEED).standard_normal(n_cols)
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        np.bincount(rows, weights=vals * x[cols], minlength=n_rows)
        best = min(best, time.perf_counter() - t0)
    return {"wall_s": best, "passes": passes}
