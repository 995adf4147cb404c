"""Transmuter-like reconfigurable hardware substrate model.

The paper evaluates CoSPARSE on Transmuter [Pal et al., PACT 2020] modelled
in gem5; this package is the reproduction's substitute — a
cycle-approximate performance and energy model with two fidelity modes
(exact trace replay for small inputs, closed-form for large ones, mirroring
the paper's own gem5/trace split).  See DESIGN.md §2 and §4.
"""

from .geometry import Geometry
from .hwconfig import HWMode, MemKind, Sharing, modes_for_algorithm
from .params import DEFAULT_PARAMS, HardwareParams
from .profile import KernelProfile, PETrace, Pattern, Region
from .stats import MemCounters, RunReport, TileReport
from .energy import EnergyBreakdown, EnergyModel
from .pipeline import Event, InOrderPipeline
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
    "PETrace",
    "Pattern",
    "Region",
    "MemCounters",
    "RunReport",
    "TileReport",
    "EnergyBreakdown",
    "Event",
    "InOrderPipeline",
    "EnergyModel",
    "TransmuterSystem",
]
