"""The per-word ``OrderedDict`` LRU cache: the one cache simulator.

:class:`ReferenceCacheBank` replays one word per Python-level iteration,
the cache semantics written as plainly as possible.  The trace-replay
oracle (``trace_oracle.py``) replays every level of the memory hierarchy
through it, a group of banks behind one crossbar as one cache
(:meth:`ReferenceCacheBank.banked`).  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

import numpy as np

from repro.errors import SimulationError
from repro.hardware.params import HardwareParams


class ReferenceCacheBank:
    """One 4 kB, 4-way, LRU cache bank — the reference implementation.

    Replays one word per Python-level iteration through per-set
    ``OrderedDict``s (LRU order: oldest first; values are dirty flags).

    Parameters
    ----------
    params:
        Hardware constants (bank size, ways, line words).
    sets_override:
        Optional set count, for banks logically merged into one larger
        cache (a shared tile-level L1 is modelled as a single cache of
        ``n_banks x bank`` capacity for hit-rate purposes).
    """

    def __init__(self, params: HardwareParams, sets_override: int = 0):
        self.params = params
        self.line_words = params.cache_line_words
        self.ways = params.cache_ways
        self.n_sets = sets_override or params.cache_sets_per_bank
        if self.n_sets <= 0:
            raise SimulationError("cache must have at least one set")
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @classmethod
    def banked(cls, n_banks: int, params: HardwareParams) -> "ReferenceCacheBank":
        """``n_banks`` banks behind one crossbar, simulated as one cache.

        For hit-rate purposes a shared group behaves as one cache of the
        aggregate capacity with word-level bank interleaving; a private
        bank is a group of one.  Bank conflicts are priced by
        :func:`~repro.hardware.latency.shared_conflict_cycles`, not here.
        """
        return cls(params, n_banks * params.cache_sets_per_bank)

    # ------------------------------------------------------------------
    @property
    def capacity_words(self) -> int:
        """Total words this bank can hold."""
        return self.n_sets * self.ways * self.line_words

    def reset_lines(self) -> None:
        """Invalidate all lines but keep counters (reconfiguration flush)."""
        for s in self._sets:
            s.clear()

    def access(self, word_addr: int, write: bool = False) -> bool:
        """Look up one word address; returns True on hit, filling on miss."""
        line = word_addr // self.line_words
        idx = line % self.n_sets
        ways = self._sets[idx]
        if line in ways:
            ways[line] = ways[line] or write
            ways.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.ways:
            _victim, dirty = ways.popitem(last=False)
            if dirty:
                self.writebacks += 1
        ways[line] = write
        return False

    def run_trace(self, addrs: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Replay a trace one word at a time; return the hit mask."""
        n = len(addrs)
        hit = np.empty(n, dtype=bool)
        access = self.access  # local alias, hot loop
        addr_list = np.asarray(addrs).tolist()
        write_list = np.asarray(writes).tolist()
        for i in range(n):
            hit[i] = access(addr_list[i], write_list[i])
        return hit

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (1.0 when idle)."""
        return self.hits / self.accesses if self.accesses else 1.0
