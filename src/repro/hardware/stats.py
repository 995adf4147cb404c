"""Counters and reports produced by the hardware model.

Both fidelity modes (analytic and trace) fill the same
:class:`MemCounters` / :class:`RunReport` structures, so the energy model
and the experiment drivers are mode-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .params import DEFAULT_PARAMS

__all__ = ["MemCounters", "TileReport", "RunReport"]


@dataclass
class MemCounters:
    """Event counts accumulated over one kernel invocation."""

    pe_ops: float = 0.0
    lcp_ops: float = 0.0
    spm_accesses: float = 0.0
    l1_accesses: float = 0.0  # cache-path accesses presented to L1
    l1_hits: float = 0.0
    l2_accesses: float = 0.0
    l2_hits: float = 0.0
    dram_words: float = 0.0  # words transferred to/from HBM
    xbar_hops: float = 0.0  # crossbar traversals (shared modes)

    def add(self, other: "MemCounters") -> None:
        """Accumulate ``other`` into ``self``."""
        self.pe_ops += other.pe_ops
        self.lcp_ops += other.lcp_ops
        self.spm_accesses += other.spm_accesses
        self.l1_accesses += other.l1_accesses
        self.l1_hits += other.l1_hits
        self.l2_accesses += other.l2_accesses
        self.l2_hits += other.l2_hits
        self.dram_words += other.dram_words
        self.xbar_hops += other.xbar_hops

    @property
    def l1_hit_rate(self) -> float:
        """L1 hits over L1 accesses (1.0 when idle)."""
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 1.0

    @property
    def l2_hit_rate(self) -> float:
        """L2 hits over L2 accesses (1.0 when idle)."""
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 1.0


@dataclass
class TileReport:
    """Per-tile timing decomposition."""

    pe_cycles: List[float]
    lcp_cycles: float = 0.0

    @property
    def cycles(self) -> float:
        """Tile completion time: slowest PE plus the LCP's serial tail."""
        return (max(self.pe_cycles) if self.pe_cycles else 0.0) + self.lcp_cycles

    @property
    def imbalance(self) -> float:
        """max/mean PE cycle ratio — the workload-balancing metric (Fig 7)."""
        if not self.pe_cycles:
            return 1.0
        mean = sum(self.pe_cycles) / len(self.pe_cycles)
        return max(self.pe_cycles) / mean if mean else 1.0


@dataclass
class RunReport:
    """The hardware model's verdict on one kernel invocation."""

    cycles: float
    counters: MemCounters
    tile_reports: List[TileReport] = field(default_factory=list)
    #: Cycles contributed by the DRAM bandwidth floor (0 when compute-bound).
    bandwidth_floor_cycles: float = 0.0
    #: Cycles spent on runtime hardware reconfiguration (<= 10 per switch).
    reconfig_cycles: float = 0.0
    #: Energy in joules — filled in by :class:`repro.hardware.energy.EnergyModel`.
    energy_j: Optional[float] = None
    #: Which fidelity mode produced this report (``"analytic"``/``"trace"``).
    fidelity: str = "analytic"
    #: The clock the cycle counts were priced at.  Filled in by the
    #: fidelity backends from their :class:`HardwareParams`, so
    #: ``time_s`` tracks the configured frequency instead of assuming
    #: the Table II default.
    clock_hz: float = DEFAULT_PARAMS.clock_hz
    #: Free-form details (compute cycles, mode label, algorithm).
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def time_s(self) -> float:
        """Wall-clock seconds at the report's own clock."""
        return self.cycles / self.clock_hz

    def seconds(self, clock_hz: float) -> float:
        """Wall-clock seconds at an explicit clock."""
        return self.cycles / clock_hz

    @property
    def bandwidth_bound(self) -> bool:
        """Whether the invocation was limited by HBM bandwidth."""
        return self.bandwidth_floor_cycles >= self.cycles

    def summary(self) -> str:
        """One-line human-readable digest."""
        c = self.counters
        return (
            f"{self.cycles:,.0f} cycles ({self.fidelity}), "
            f"L1 {c.l1_hit_rate:.1%} / L2 {c.l2_hit_rate:.1%} hit, "
            f"{c.dram_words:,.0f} DRAM words"
            + (f", {self.energy_j * 1e6:.1f} uJ" if self.energy_j is not None else "")
        )
