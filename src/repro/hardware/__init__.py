"""Transmuter-like reconfigurable hardware substrate model.

The paper evaluates CoSPARSE on Transmuter [Pal et al., PACT 2020] modelled
in gem5; this package is the reproduction's substitute — a
cycle-approximate performance and energy model priced in closed form
(:mod:`repro.hardware.analytic`).  Exact trace replay, which validates it
as the paper's gem5 runs validate its trace-based model, is a test
oracle (``tests/hardware/trace_oracle.py``).  See DESIGN.md §2 and §4.
"""

from .geometry import Geometry
from .hwconfig import HWMode, MemKind, Sharing, modes_for_algorithm
from .params import DEFAULT_PARAMS, HardwareParams
from .profile import KernelProfile, Pattern, Region
from .stats import MemCounters, RunReport, TileReport
from .energy import EnergyBreakdown, EnergyModel
from .system import TransmuterSystem

__all__ = [
    "Geometry",
    "HWMode",
    "MemKind",
    "Sharing",
    "modes_for_algorithm",
    "DEFAULT_PARAMS",
    "HardwareParams",
    "KernelProfile",
    "Pattern",
    "Region",
    "MemCounters",
    "RunReport",
    "TileReport",
    "EnergyBreakdown",
    "EnergyModel",
    "TransmuterSystem",
]
