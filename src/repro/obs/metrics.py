"""The observability metrics registry (telemetry v2).

The always-on telemetry layer the serving stack reports from:

* named monotonic **counters** (:meth:`MetricsRegistry.inc`);
* named **observations** (:meth:`MetricsRegistry.observe`, keeping a
  count/total/min/max digest so a summary can report means and extremes
  without storing every sample);
* bounded log-bucketed **histograms** (:meth:`MetricsRegistry.observe_hist`
  / :class:`Histogram`): fixed memory per metric, mergeable snapshots,
  and p50/p95/p99/mean answered straight from the bucket counts — the
  serve ``STATS`` surface is built on these;
* time-**windowed gauges** (:meth:`MetricsRegistry.gauge` /
  :class:`WindowedGauge`): level samples (queue depth, coalesce width,
  in-flight queries) summarised over a sliding wall-clock window, so a
  long-running server reports *recent* load, not its all-time history.

Every mutating entry point takes one shared lock: the serve drivers run
on worker threads and hammer one registry concurrently, so the old
unlocked read-modify-write ``inc``/``observe`` could lose updates
(``tests/obs/test_metrics.py`` pins the fix with an 8-thread hammer).
The process-global perf counters stay in :mod:`repro.perf`; spans
carry their deltas.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .quantiles import bucket_quantile

__all__ = ["Histogram", "WindowedGauge", "MetricsRegistry"]

#: Histogram bucket scheme, shared by every instance so any two
#: snapshots merge bucket-for-bucket.  Buckets are log-spaced: bucket
#: ``i`` covers ``[FLOOR * GROWTH**i, FLOOR * GROWTH**(i+1))``, with the
#: first and last buckets absorbing underflow/overflow.  The floor is
#: 100 ns (below any latency the service can observe) and 4 buckets per
#: octave (~19% resolution) over 38 octaves reaches past 10^4 seconds —
#: every bucketed percentile is within one 1.19x bucket of the exact
#: answer across the whole range a query latency can occupy.
HIST_FLOOR = 1e-7
HIST_BUCKETS_PER_OCTAVE = 4
HIST_GROWTH = 2.0 ** (1.0 / HIST_BUCKETS_PER_OCTAVE)
HIST_BUCKETS = 38 * HIST_BUCKETS_PER_OCTAVE

__all__ += ["HIST_FLOOR", "HIST_GROWTH", "HIST_BUCKETS"]

_LOG_GROWTH = math.log(HIST_GROWTH)

#: Default sliding window for gauges, seconds.  Long enough to smooth a
#: burst, short enough that a quiet server's load stats decay to "now".
DEFAULT_WINDOW_S = 60.0

#: Samples a gauge retains at most; beyond this the oldest fall off even
#: inside the window, bounding memory under sustained load.
GAUGE_MAX_SAMPLES = 1024


class Histogram:
    """Bounded log-bucketed sample digest; quantiles from bucket counts.

    Memory is a fixed ``HIST_BUCKETS``-entry count array regardless of
    how many samples land, which is what makes it safe to keep per
    metric on a server that answers queries forever.  Exact min/max and
    the sum are retained alongside, so ``mean`` is exact and only the
    interior quantiles are bucket-quantised.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self):
        self.counts: List[int] = [0] * HIST_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    @staticmethod
    def bucket_index(value: float) -> int:
        """The (clamped) bucket a sample lands in."""
        if value < HIST_FLOOR:
            return 0
        index = int(math.log(value / HIST_FLOOR) / _LOG_GROWTH)
        return min(max(index, 0), HIST_BUCKETS - 1)

    @staticmethod
    def bucket_bounds(index: int) -> Tuple[float, float]:
        """``[lo, hi)`` covered by bucket ``index``."""
        lo = HIST_FLOOR * HIST_GROWTH ** index
        return lo, lo * HIST_GROWTH

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[self.bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) from the bucket counts."""
        rows = [
            (*self.bucket_bounds(i), c)
            for i, c in enumerate(self.counts)
            if c
        ]
        return bucket_quantile(rows, q)

    # ------------------------------------------------------------------
    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same fixed scheme) into this one."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def snapshot(self) -> dict:
        """Plain-JSON digest: sparse buckets plus summary quantiles."""
        out = {
            "count": self.count,
            "total": self.total,
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
        }
        if self.count:
            out.update(
                min=self.min,
                max=self.max,
                mean=self.mean,
                p50=self.quantile(50.0),
                p95=self.quantile(95.0),
                p99=self.quantile(99.0),
            )
        return out

    @classmethod
    def from_snapshot(cls, data: dict) -> "Histogram":
        """Rebuild a mergeable histogram from :meth:`snapshot` output."""
        hist = cls()
        for key, c in (data.get("buckets") or {}).items():
            hist.counts[min(max(int(key), 0), HIST_BUCKETS - 1)] += int(c)
        hist.count = int(data.get("count", 0))
        hist.total = float(data.get("total", 0.0))
        hist.min = float(data.get("min", math.inf))
        hist.max = float(data.get("max", -math.inf))
        return hist


class WindowedGauge:
    """A level sampled over a sliding wall-clock window.

    ``set`` records ``(t, value)``; the digest drops samples older than
    the window (and beyond :data:`GAUGE_MAX_SAMPLES`), so a stats pull
    reports the server's *recent* queue depth / coalesce width, not a
    high-water mark frozen at startup.  The all-time last value and max
    survive expiry — "what is it now" and "how bad did it ever get"
    stay answerable on a quiet server.
    """

    __slots__ = ("window_s", "samples", "last", "peak")

    def __init__(self, window_s: float = DEFAULT_WINDOW_S):
        self.window_s = float(window_s)
        self.samples: Deque[Tuple[float, float]] = deque(
            maxlen=GAUGE_MAX_SAMPLES
        )
        self.last = 0.0
        self.peak = -math.inf

    def set(self, value: float, now_s: Optional[float] = None) -> None:
        value = float(value)
        if now_s is None:
            now_s = time.monotonic()
        self.samples.append((now_s, value))
        self.last = value
        if value > self.peak:
            self.peak = value
        self._expire(now_s)

    def _expire(self, now_s: float) -> None:
        horizon = now_s - self.window_s
        while self.samples and self.samples[0][0] < horizon:
            self.samples.popleft()

    def snapshot(self, now_s: Optional[float] = None) -> dict:
        if now_s is None:
            now_s = time.monotonic()
        self._expire(now_s)
        values = [v for _, v in self.samples]
        out = {
            "last": self.last,
            "peak": self.peak if self.peak > -math.inf else 0.0,
            "window_s": self.window_s,
            "window_count": len(values),
        }
        if values:
            out.update(
                window_mean=sum(values) / len(values),
                window_max=max(values),
            )
        return out


class MetricsRegistry:
    """Named counters, observations, histograms and windowed gauges.

    Thread-safe: the serve stack mutates one registry from its worker
    threads while the admin surface snapshots it from the event loop,
    so every mutation and the snapshot hold :attr:`_lock`.
    """

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.observations: Dict[str, Dict[str, float]] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, WindowedGauge] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the monotonic counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one sample of ``name`` (count/total/min/max digest)."""
        value = float(value)
        with self._lock:
            digest = self.observations.get(name)
            if digest is None:
                self.observations[name] = {
                    "count": 1.0,
                    "total": value,
                    "min": value,
                    "max": value,
                }
                return
            digest["count"] += 1.0
            digest["total"] += value
            if value < digest["min"]:
                digest["min"] = value
            if value > digest["max"]:
                digest["max"] = value

    def observe_hist(self, name: str, value: float) -> None:
        """Record one sample into the bounded histogram ``name``."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def gauge(
        self, name: str, value: float, now_s: Optional[float] = None
    ) -> None:
        """Record the current level of the windowed gauge ``name``."""
        with self._lock:
            g = self.gauges.get(name)
            if g is None:
                g = self.gauges[name] = WindowedGauge()
            g.set(value, now_s)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict copy of everything (counters, observations,
        histogram digests, gauge windows) under one lock hold."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "observations": {
                    k: dict(v) for k, v in self.observations.items()
                },
                "histograms": {
                    k: h.snapshot() for k, h in self.histograms.items()
                },
                "gauges": {k: g.snapshot() for k, g in self.gauges.items()},
            }

    def merge_snapshot(self, data: dict) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters and observation digests add; histograms merge bucket-
        for-bucket (the fixed scheme makes any two snapshots mergeable).
        Gauges are windows over *this* process's clock and do not merge.
        """
        with self._lock:
            for name, value in (data.get("counters") or {}).items():
                self.counters[name] = self.counters.get(name, 0.0) + value
            for name, digest in (data.get("observations") or {}).items():
                mine = self.observations.get(name)
                if mine is None:
                    self.observations[name] = dict(digest)
                    continue
                mine["count"] += digest["count"]
                mine["total"] += digest["total"]
                mine["min"] = min(mine["min"], digest["min"])
                mine["max"] = max(mine["max"], digest["max"])
            for name, digest in (data.get("histograms") or {}).items():
                mine_h = self.histograms.get(name)
                if mine_h is None:
                    self.histograms[name] = Histogram.from_snapshot(digest)
                else:
                    mine_h.merge(Histogram.from_snapshot(digest))
