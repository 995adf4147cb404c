"""Latency composition shared by the analytic and trace fidelity modes.

Both modes price an access the same way once the hit rates are known; only
*how the hit rates are obtained* differs (closed form vs. replayed
addresses).  Keeping the composition here guarantees the two modes rank
configurations consistently.
"""

from __future__ import annotations

import numpy as np

from .geometry import Geometry
from .hwconfig import HWMode, Sharing
from .params import HardwareParams

__all__ = [
    "hide_fraction", "compose_latency", "shared_conflict_cycles",
    "spm_latency", "l1_base_latency",
]

#: Fraction of a RANDOM (independent-gather) miss the 8 MSHRs overlap.
_RANDOM_INDEPENDENT_HIDE = 0.30


def hide_fraction(pattern, params: HardwareParams):
    """Fraction of miss latency that remains *visible* to the core.

    Sequential streams are covered by the stride prefetcher; independent
    gathers overlap moderately via MSHRs; pointer-chasing (each address
    depends on the previous load) hides almost nothing.  ``pattern`` is
    one :class:`Pattern` or an array of them.
    """
    visible = (  # indexed by Pattern
        1.0 - params.prefetch_hide_fraction,  # SEQUENTIAL
        1.0 - _RANDOM_INDEPENDENT_HIDE,  # RANDOM
        1.0 - params.random_hide_fraction,  # DEPENDENT
    )
    if isinstance(pattern, np.ndarray):
        return np.take(visible, pattern)
    return visible[pattern]


def compose_latency(base_l1: float, h1, h2, pattern, params: HardwareParams):
    """Mean cycles per access given L1/L2 hit rates and the pattern.

    ``h1``, ``h2`` and ``pattern`` may be arrays of one shape: the
    analytic model composes every stream's latency at once.
    """
    hide = hide_fraction(pattern, params)
    l2_extra = max(params.l2_hit_latency - base_l1, 0.0)
    dram_extra = max(params.dram_latency - params.l2_hit_latency, 0.0)
    return (
        base_l1
        + (1.0 - h1) * hide * l2_extra
        + (1.0 - h1) * (1.0 - h2) * hide * dram_extra
    )


def shared_conflict_cycles(
    requesters: int, n_banks: int, params: HardwareParams
) -> float:
    """Expected arbitration + serialisation extra under a shared crossbar.

    Table II: shared mode costs 1 cycle of arbitration plus 0..(Nsrc-1)
    serialisation cycles depending on conflicts.  With ``requesters``
    cores spread uniformly over ``n_banks`` banks, an access expects
    ``(requesters-1)/(2*n_banks)`` conflicting peers ahead of it.
    """
    if n_banks <= 0:
        return params.xbar_arbitration
    return params.xbar_arbitration + 0.5 * (requesters - 1) / n_banks


def spm_latency(mode: HWMode, geometry: Geometry, params: HardwareParams) -> float:
    """Visible cycles of one scratchpad access under ``mode``.

    A pipelined in-order core hides the 1-2 cycle response behind the
    issue slot; visible are the issue cycle, the software SPM-management
    overhead and — for the shared SPM — crossbar serialisation (in SCS
    roughly P/2 requesters contend for the P/2 SPM banks).
    """
    if mode is HWMode.SCS:
        half = max(geometry.pes_per_tile // 2, 1)
        serial = shared_conflict_cycles(half, half, params) - params.xbar_arbitration
        return 1.0 + params.spm_management_overhead + max(serial, 0.0)
    return 1.0 + params.spm_management_overhead


def l1_base_latency(
    mode: HWMode, geometry: Geometry, params: HardwareParams
) -> float:
    """Visible cycles of an L1 cache-path access that hits."""
    if mode.l1_sharing is Sharing.SHARED:
        requesters = geometry.pes_per_tile
        banks = geometry.l1_banks_per_tile
        if mode is HWMode.SCS:  # traffic and banks both halve
            requesters = max(requesters // 2, 1)
            banks = max(banks // 2, 1)
        serial = shared_conflict_cycles(requesters, banks, params) - (
            params.xbar_arbitration
        )
        return 1.0 + max(serial, 0.0)
    return 1.0
