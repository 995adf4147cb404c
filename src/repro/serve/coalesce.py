"""Query coalescing: concurrent single-source traversals become one batch.

The batched SpMM path (``spmv_batch``) advances K frontiers in
lockstep, one batched superstep for all of them.  Under serving load
that is free throughput: when several clients ask for BFS/SSSP on the
*same* graph at the same time, one ``bfs_multi``/``sssp_multi``
execution answers all of them,
and each column is **bit-identical** to the single-source run the
client would have gotten alone.

Mechanics
---------
Queries enter per-``(graph, algorithm, params)`` groups.  The first
arrival becomes the *leader*: it sleeps for one coalescing window
(letting a burst pile in behind it — including the whole time a
previous batch holds the graph's runtime lock), then atomically takes
the accumulated batch and runs it.  Followers just await their future.
Duplicate sources inside one batch are deduplicated: one executed
column fans out to every waiter.  ``max_width`` caps a batch; a full
batch seals itself so the next arrival starts a new one.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

__all__ = ["Coalescer", "CoalescedResult"]

#: Default window one leader waits for followers, in seconds.  Long
#: enough for a burst of protocol frames to land, short enough to be
#: invisible next to a traversal.
DEFAULT_WINDOW_S = 0.002

#: Default cap on one batch's distinct sources (spmv_batch groups per
#: configuration internally, so wide batches stay safe — this only
#: bounds response-size and fairness).
DEFAULT_MAX_WIDTH = 64


class CoalescedResult:
    """What one waiter gets back: its column plus batch provenance."""

    __slots__ = ("response", "width")

    def __init__(self, response: dict, width: int):
        #: The per-source response dict produced by the batch runner.
        self.response = response
        #: Distinct sources the executed batch carried.
        self.width = width


class _Batch:
    """One accumulating group of same-key queries."""

    __slots__ = ("sources", "waiters", "sealed")

    def __init__(self):
        self.sources: List[int] = []
        #: source -> futures awaiting that column (dedup fan-out).
        self.waiters: Dict[int, List[asyncio.Future]] = {}
        self.sealed = False

    def add(self, source: int) -> asyncio.Future:
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        if source not in self.waiters:
            self.sources.append(source)
            self.waiters[source] = []
        self.waiters[source].append(fut)
        return fut

    @property
    def width(self) -> int:
        return len(self.sources)


class Coalescer:
    """Groups concurrent same-key queries into batched executions.

    Parameters
    ----------
    window_s:
        How long a batch leader waits for followers before executing.
        ``0`` still coalesces whatever arrived in the same event-loop
        turn (and everything that queued behind a running batch).
    max_width:
        Distinct sources per batch; arrivals beyond it seal the batch
        and open the next one.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        max_width: int = DEFAULT_MAX_WIDTH,
    ):
        self.window_s = float(window_s)
        self.max_width = int(max_width)
        self._pending: Dict[Tuple, _Batch] = {}
        #: Executed-batch widths, for the obs coalesce-width metric.
        self.widths: List[int] = []

    # ------------------------------------------------------------------
    async def submit(
        self,
        key: Tuple,
        source: int,
        run_batch: Callable[[List[int]], Awaitable[List[dict]]],
    ) -> CoalescedResult:
        """Enqueue ``source`` under ``key``; leader executes the batch.

        ``run_batch(sources)`` must return one response dict per source,
        in order.  Every waiter of a failed batch sees the exception.
        """
        batch = self._pending.get(key)
        if batch is None or batch.sealed:
            batch = _Batch()
            self._pending[key] = batch
            fut = batch.add(source)
            await self._lead(key, batch, run_batch)
        else:
            fut = batch.add(source)
            if batch.width >= self.max_width:
                batch.sealed = True
                del self._pending[key]
        return await fut

    async def _lead(self, key, batch: _Batch, run_batch) -> None:
        """Leader duty: wait the window, seal, execute, distribute."""
        if self.window_s > 0:
            await asyncio.sleep(self.window_s)
        if not batch.sealed:
            batch.sealed = True
            if self._pending.get(key) is batch:
                del self._pending[key]
        try:
            responses = await run_batch(list(batch.sources))
            if len(responses) != batch.width:
                raise RuntimeError(
                    f"batch runner returned {len(responses)} responses "
                    f"for {batch.width} sources"
                )
        except BaseException as exc:
            for waiters in batch.waiters.values():
                for fut in waiters:
                    if not fut.done():
                        fut.set_exception(exc)
            return
        self.widths.append(batch.width)
        for source, response in zip(batch.sources, responses):
            result = CoalescedResult(response, batch.width)
            for fut in batch.waiters[source]:
                if not fut.done():
                    fut.set_result(result)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Width digest of every executed batch so far."""
        widths = self.widths
        return {
            "batches": len(widths),
            "coalesced_queries": sum(widths),
            "max_width": max(widths) if widths else 0,
            "mean_width": (
                round(sum(widths) / len(widths), 3) if widths else 0.0
            ),
        }
