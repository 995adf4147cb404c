"""Scratchpad (SPM) bank model.

An RCache bank in SPM mode is "physically-addressed, word-granular"
(Table II): software places data explicitly and every access succeeds at a
fixed latency — there are no misses, which is precisely why CoSPARSE pins
the IP vector segment (SCS) and the OP sorted list (PS) there.  The model
therefore only needs to track occupancy and access counts; the *latency*
of an SPM access is composed in :mod:`repro.hardware.latency` /
:mod:`repro.hardware.analytic` because it depends on the sharing mode.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..errors import SimulationError
from .params import HardwareParams

__all__ = ["Scratchpad"]


class Scratchpad:
    """A software-managed scratchpad of ``capacity_words`` words."""

    def __init__(self, capacity_words: int):
        if capacity_words < 0:
            raise SimulationError("scratchpad capacity must be non-negative")
        self.capacity_words = int(capacity_words)
        self._allocations: Dict[str, int] = {}
        self.accesses = 0
        self.fill_words = 0

    # ------------------------------------------------------------------
    @property
    def used_words(self) -> int:
        """Words currently allocated."""
        return sum(self._allocations.values())

    @property
    def free_words(self) -> int:
        """Words still available."""
        return self.capacity_words - self.used_words

    def allocate(self, name: str, words: int) -> int:
        """Reserve ``words`` for a named buffer; returns the words granted.

        Over-subscription is *clamped*, not rejected: the paper's PS mode
        lets the sorted list "spill over to the shared memory" when it
        exceeds the SPM (Section III-A), so callers ask for what they need
        and handle the shortfall (the spill fraction) themselves.
        """
        if words < 0:
            raise SimulationError("allocation size must be non-negative")
        if name in self._allocations:
            raise SimulationError(f"buffer {name!r} already allocated")
        granted = min(words, self.free_words)
        self._allocations[name] = granted
        return granted

    def release(self, name: str) -> None:
        """Free a named buffer."""
        if name not in self._allocations:
            raise SimulationError(f"buffer {name!r} not allocated")
        del self._allocations[name]

    def resident_fraction(self, name: str, needed_words: int) -> float:
        """Fraction of a structure that actually fits in its allocation."""
        if needed_words <= 0:
            return 1.0
        return min(1.0, self._allocations.get(name, 0) / needed_words)

    # ------------------------------------------------------------------
    def access(self, count: int = 1) -> None:
        """Record ``count`` word accesses (always hit)."""
        self.accesses += count

    def fill(self, words: int) -> None:
        """Record a DMA fill of ``words`` words from memory."""
        self.fill_words += words

    @staticmethod
    def heap_spm_access_fraction(heap_words, spm_words: int):
        """Fraction of heap accesses served by SPM when the heap spills.

        A binary heap is accessed level by level from the root; with the
        top ``k`` of ``d`` levels resident (the natural placement), the
        expected fraction of sift accesses that land in the SPM is
        ``k / d`` — the paper's "the tree nature of heap ensures that the
        majority of comparisons and swaps still happen in the SPM".
        ``heap_words`` is one heap's size or an array of them (one heap
        per PE); the result has the same shape.
        """
        words = np.asarray(heap_words)
        fits = (words <= 0) | ((spm_words > 0) & (words <= spm_words))
        fraction = np.where(fits, 1.0, 0.0)
        spills = ~fits & (spm_words > 0)
        if spills.any():
            spm_levels = max(1, math.floor(math.log2(spm_words + 1)))
            total_levels = [
                max(1, math.ceil(math.log2(w + 1))) for w in words[spills].tolist()
            ]
            fraction[spills] = np.minimum(1.0, spm_levels / np.array(total_levels))
        return fraction if words.ndim else float(fraction)
