"""Cycle-stepped in-order pipeline timing: the oracle of the hide fractions.

The analytic model prices memory accesses with *hide fractions* — how
much of a miss's latency a 1-issue in-order core with 8 MSHRs actually
exposes for each access pattern.  Those fractions are assumptions, so
this module provides the machinery to check them: a small cycle-stepped
simulator of one PE issuing an explicit instruction schedule, with

* one instruction issued per cycle,
* loads occupying an MSHR until their latency elapses; issue stalls when
  all MSHRs are busy;
* ``dependent`` loads additionally stalling issue until the *previous*
  load they depend on has returned (pointer chasing);
* a use-distance: an ordinary load only stalls the pipeline when a later
  instruction consumes it before it returned (modelled by the schedule
  placing a ``use`` event);
* stores retiring through an 8-entry write buffer that drains one entry
  per cycle.

``test_pipeline.py`` replays IP-like and OP-like schedules and asserts
the measured exposure matches the analytic hide fractions within a
tolerance band — if those constants are ever changed, the validation
fails rather than silently skewing every figure.  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import SimulationError
from repro.hardware.params import DEFAULT_PARAMS, HardwareParams

__all__ = ["Event", "InOrderPipeline"]


@dataclass(frozen=True)
class Event:
    """One scheduled instruction.

    kind:
        ``"op"`` (ALU), ``"load"``, ``"use"`` (consumes the most recent
        load's result), or ``"store"``.
    latency:
        Memory response time for loads (1 = L1 hit).
    dependent:
        The load's *address* comes from the previous load's result
        (pointer chasing): issue waits for that result first.
    """

    kind: str = "op"
    latency: float = 1.0
    dependent: bool = False

    @staticmethod
    def op() -> "Event":
        return Event("op")

    @staticmethod
    def load(latency: float, dependent: bool = False) -> "Event":
        return Event("load", latency, dependent)

    @staticmethod
    def use() -> "Event":
        return Event("use")

    @staticmethod
    def store() -> "Event":
        return Event("store")


class InOrderPipeline:
    """Times one PE's schedule; returns total cycles."""

    def __init__(self, params: HardwareParams = DEFAULT_PARAMS, store_buffer: int = 8):
        self.mshrs = params.mshrs
        self.store_buffer = store_buffer

    def run(self, events: Iterable[Event]) -> float:
        """Cycle count to issue and retire the whole schedule."""
        now = 0.0  # next issue cycle
        outstanding = []  # completion times of in-flight loads
        last_load_done: Optional[float] = None
        store_slots = []  # completion (drain) times of buffered stores

        def reclaim(t):
            outstanding[:] = [c for c in outstanding if c > t]
            store_slots[:] = [c for c in store_slots if c > t]

        for ev in events:
            reclaim(now)
            if ev.kind == "op":
                now += 1.0
            elif ev.kind == "use":
                if last_load_done is not None and last_load_done > now:
                    now = last_load_done
                now += 1.0
            elif ev.kind == "load":
                if ev.dependent and last_load_done is not None:
                    now = max(now, last_load_done)
                if len(outstanding) >= self.mshrs:
                    now = max(now, min(outstanding))
                    reclaim(now)
                done = now + ev.latency
                outstanding.append(done)
                last_load_done = done
                now += 1.0
            elif ev.kind == "store":
                if len(store_slots) >= self.store_buffer:
                    now = max(now, min(store_slots))
                    reclaim(now)
                store_slots.append(now + 2.0)  # drain latency
                now += 1.0
            else:
                raise SimulationError(f"unknown event kind {ev.kind!r}")
        # retire everything
        tail = max(
            [now]
            + [c for c in outstanding]
            + [c for c in store_slots]
        )
        return tail

    # ------------------------------------------------------------------
    def measure_exposure(
        self, miss_latency: float, n: int, pattern: str, use_gap: int = 2
    ) -> float:
        """Visible fraction of ``miss_latency`` for a synthetic schedule.

        Builds ``n`` loads of the given latency in the requested pattern
        (every load's value consumed ``use_gap`` instructions later for
        independent patterns; immediately for dependent), times it, and
        returns ``(cycles - ideal) / (n * (miss_latency - 1))`` — the
        fraction of the stall the core could not hide.
        """
        events = []
        for _ in range(n):
            if pattern == "dependent":
                events.append(Event.load(miss_latency, dependent=True))
                events.append(Event.use())
            else:
                events.append(Event.load(miss_latency))
                events.extend(Event.op() for _ in range(use_gap))
                events.append(Event.use())
        cycles = self.run(events)
        per = len(events) / n
        ideal = n * per  # every slot single-cycle
        stall_total = n * max(miss_latency - 1.0, 1e-9)
        return max(0.0, (cycles - ideal) / stall_total)
