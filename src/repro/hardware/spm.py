"""Scratchpad (SPM) residency of the OP kernel's heap.

An RCache bank in SPM mode is "physically-addressed, word-granular"
(Table II): software places data explicitly and every access succeeds at a
fixed latency — there are no misses, which is precisely why CoSPARSE pins
the IP vector segment (SCS) and the OP sorted list (PS) there.  The
*latency* of an SPM access is composed in :mod:`repro.hardware.latency` /
:mod:`repro.hardware.analytic` because it depends on the sharing mode;
what is left here is how much of a spilling heap the SPM still serves.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["heap_spm_access_fraction"]


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
