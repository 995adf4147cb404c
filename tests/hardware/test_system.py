"""TransmuterSystem facade tests (configuration + pricing)."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import (
    DEFAULT_PARAMS,
    Geometry,
    HWMode,
    Pattern,
    Region,
    TransmuterSystem,
)

from .reference_model import PE, Stream, Tile, pack


def tiny_profile(mode):
    return pack(
        "ip" if mode in (HWMode.SC, HWMode.SCS) else "op",
        mode,
        [
            Tile(
                pes=[
                    PE(
                        compute_ops=100.0,
                        streams=[
                            Stream(Region.MATRIX, 100, Pattern.SEQUENTIAL, 100)
                        ],
                    )
                ]
            )
        ],
    )


class TestConfiguration:
    def test_accepts_geometry_string(self):
        s = TransmuterSystem("4x8")
        assert s.geometry.tiles == 4

    def test_rejects_non_mode(self):
        s = TransmuterSystem("2x2")
        with pytest.raises(ConfigurationError):
            s.configure("SC")

    def test_first_configure_counts(self):
        s = TransmuterSystem("2x2")
        assert s.configure(HWMode.SC) == DEFAULT_PARAMS.reconfig_cycles
        assert s.reconfigurations == 1

    def test_same_mode_is_free(self):
        s = TransmuterSystem("2x2")
        s.configure(HWMode.SC)
        assert s.configure(HWMode.SC) == 0.0
        assert s.reconfigurations == 1

    def test_switch_costs_at_most_10_cycles(self):
        s = TransmuterSystem("2x2")
        s.configure(HWMode.SC)
        cost = s.configure(HWMode.PC)
        assert 0 < cost <= 10.0


class TestRun:
    def test_run_reconfigures(self):
        s = TransmuterSystem("2x2")
        r = s.run(tiny_profile(HWMode.SC))
        assert r.reconfig_cycles == DEFAULT_PARAMS.reconfig_cycles
        r2 = s.run(tiny_profile(HWMode.SC))
        assert r2.reconfig_cycles == 0.0

    def test_run_attaches_energy(self):
        s = TransmuterSystem("2x2")
        r = s.run(tiny_profile(HWMode.PC))
        assert r.energy_j is not None and r.energy_j > 0

    def test_evaluate_without_switching_leaves_mode(self):
        s = TransmuterSystem("2x2")
        s.configure(HWMode.SC)
        s.evaluate_without_switching(tiny_profile(HWMode.PS))
        assert s.current_mode is HWMode.SC

    def test_report_summary_renders(self):
        s = TransmuterSystem("2x2")
        assert "cycles" in s.run(tiny_profile(HWMode.SC)).summary()
