"""The modelled Transmuter system: configuration + pricing facade.

:class:`TransmuterSystem` is what the CoSPARSE runtime talks to.  It holds
the geometry and the *current* hardware mode, charges the documented
<=10-cycle overhead whenever a kernel requires a different mode (runtime
hardware reconfiguration, triggered by one of the LCPs — Section III-D),
and prices profiles with the analytic model: one profile at a time, or a
list of one mode and shape (a sweep row, a batch group) in one solve.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from .analytic import AnalyticModel
from .energy import EnergyModel
from .geometry import Geometry
from .hwconfig import HWMode
from .params import DEFAULT_PARAMS, HardwareParams
from .profile import KernelProfile
from .stats import RunReport

__all__ = ["TransmuterSystem"]


class TransmuterSystem:
    """A ``tiles x pes_per_tile`` reconfigurable array.

    Parameters
    ----------
    geometry:
        A :class:`~repro.hardware.geometry.Geometry` or the paper's
        ``"AxB"`` string (e.g. ``"8x16"``).
    params:
        Microarchitectural constants; defaults to Table II.
    """

    def __init__(
        self,
        geometry: Union[Geometry, str],
        params: HardwareParams = DEFAULT_PARAMS,
    ):
        if isinstance(geometry, str):
            geometry = Geometry.parse(geometry)
        self.geometry = geometry
        self.params = params
        self.energy_model = EnergyModel(geometry, params)
        self._analytic = AnalyticModel(geometry, params)
        self.current_mode: Optional[HWMode] = None
        self.reconfigurations = 0
        self.reconfiguration_cycles = 0.0
        #: id(frozen profile) -> (that profile, its analytic report before
        #: reconfiguration and energy).  Holding the profile pins its id.
        self._priced: Dict[int, Tuple[KernelProfile, RunReport]] = {}

    # ------------------------------------------------------------------
    def configure(self, mode: HWMode) -> float:
        """Switch the memory hierarchy to ``mode``; returns cycles spent.

        Switching to the mode already active is free; any actual switch
        costs ``params.reconfig_cycles`` (<= 10 cycles, Section II-C).
        """
        if not isinstance(mode, HWMode):
            raise ConfigurationError(f"expected an HWMode, got {mode!r}")
        if mode is self.current_mode:
            return 0.0
        self.current_mode = mode
        self.reconfigurations += 1
        self.reconfiguration_cycles += self.params.reconfig_cycles
        return self.params.reconfig_cycles

    # ------------------------------------------------------------------
    def _evaluate(self, profiles: Sequence[KernelProfile]) -> List[RunReport]:
        """The analytic reports of ``profiles``, in order, from one solve.

        A lone frozen profile (:meth:`KernelProfile.freeze`) cannot
        change, so pricing it again would reproduce the stored report:
        it is priced once and each call gets a field-by-field copy of
        that report, which the caller may then charge reconfiguration
        and energy on.  Any other list is priced afresh.
        """
        if len(profiles) != 1 or not profiles[0].frozen:
            return self._analytic.evaluate(profiles)
        profile = profiles[0]
        hit = self._priced.get(id(profile))
        if hit is None:
            hit = self._priced[id(profile)] = (
                profile, self._analytic.evaluate(profiles)[0]
            )
        report = hit[1]
        return [
            replace(
                report,
                counters=replace(report.counters),
                tile_reports=[
                    replace(t, pe_cycles=list(t.pe_cycles))
                    for t in report.tile_reports
                ],
                detail=dict(report.detail),
            )
        ]

    def run_many(self, profiles: Sequence[KernelProfile]) -> List[RunReport]:
        """Price kernel invocations of one mode and shape in one solve.

        Reconfiguration and energy are charged per profile, in list
        order, so the reports equal :meth:`run` on each profile in turn.
        """
        reports = self._evaluate(profiles)
        for profile, report in zip(profiles, reports):
            reconfig = self.configure(profile.mode)
            report.cycles += reconfig
            report.reconfig_cycles = reconfig
            self.energy_model.attach(report)
        return reports

    def run(self, profile: KernelProfile) -> RunReport:
        """Price one kernel invocation, reconfiguring first if needed."""
        return self.run_many([profile])[0]

    def evaluate_many(self, profiles: Sequence[KernelProfile]) -> List[RunReport]:
        """Price profiles of one mode and shape hypothetically, in one
        solve, leaving the system mode alone."""
        reports = self._evaluate(profiles)
        for report in reports:
            self.energy_model.attach(report)
        return reports

    def evaluate_without_switching(self, profile: KernelProfile) -> RunReport:
        """Price a profile hypothetically, leaving the system mode alone.

        The decision layer uses this to compare candidate configurations;
        only the chosen one is actually run.
        """
        return self.evaluate_many([profile])[0]

    # ------------------------------------------------------------------
    @property
    def static_power_w(self) -> float:
        """Array static power (W)."""
        return self.energy_model.static_power_w

    @property
    def area_mm2(self) -> float:
        """Coarse die area (mm^2)."""
        return self.energy_model.area_mm2

    def __repr__(self):  # pragma: no cover - debugging aid
        mode = self.current_mode.label if self.current_mode else "unconfigured"
        return f"TransmuterSystem({self.geometry.name}, mode={mode})"

