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


def ops_profile(mode, ops, tiles=1):
    """``tiny_profile`` with ``ops`` compute ops and ``tiles`` tiles."""
    algorithm = "ip" if mode in (HWMode.SC, HWMode.SCS) else "op"
    stream = Stream(Region.VECTOR_IN, 300, Pattern.RANDOM, 5000)
    return pack(
        algorithm,
        mode,
        [Tile(pes=[PE(compute_ops=ops, streams=[stream])])] * tiles,
    )


class TestRunMany:
    """A list of one mode and shape is priced in one solve and charged
    per profile, in list order, as ``run`` on each in turn."""

    def profiles(self):
        frozen = ops_profile(HWMode.SC, 70.0).freeze()
        return [
            ops_profile(HWMode.SC, 10.0),
            frozen,
            ops_profile(HWMode.SC, 40.0),
            frozen,
        ], frozen

    def test_equals_sequential_runs(self, monkeypatch):
        profiles, frozen = self.profiles()
        one, many = TransmuterSystem("2x2"), TransmuterSystem("2x2")
        for s in (one, many):
            s.configure(HWMode.PC)
        want = [one.run(p) for p in profiles]
        solves = []
        evaluate = many._analytic.evaluate

        def counting(batch):
            solves.append(list(batch))
            return evaluate(batch)

        monkeypatch.setattr(many._analytic, "evaluate", counting)
        got = many.run_many(profiles)
        assert got == want
        assert [r.cycles for r in got] == [r.cycles for r in want]
        assert [r.energy_j for r in got] == [r.energy_j for r in want]
        assert [r.reconfig_cycles for r in got] == [
            DEFAULT_PARAMS.reconfig_cycles, 0.0, 0.0, 0.0
        ]
        assert many.reconfigurations == one.reconfigurations == 2
        assert many.reconfiguration_cycles == one.reconfiguration_cycles
        assert many.current_mode is HWMode.SC
        # One solve, with the frozen profile priced at each occurrence
        # to the same bits, each its own report.
        assert len(solves) == 1
        assert [id(p) for p in solves[0]] == [id(p) for p in profiles]
        assert got[1] is not got[3]
        assert got[1].counters is not got[3].counters
        assert got[1].tile_reports[0] is not got[3].tile_reports[0]
        assert got[1].detail is not got[3].detail
        got[1].tile_reports[0].pe_cycles[0] = -1.0
        assert got[3].tile_reports[0].pe_cycles[0] != -1.0
        # Alone, the frozen profile is priced once and each call gets
        # its own copy of the stored report.
        first = many.run_many([frozen])
        again = many.run_many([frozen])
        assert [[id(p) for p in s] for s in solves[1:]] == [[id(frozen)]]
        assert first == again == [one.run(frozen)]
        assert first[0] is not again[0]
        assert first[0].counters is not again[0].counters
        assert first[0].tile_reports[0] is not again[0].tile_reports[0]
        assert first[0].detail is not again[0].detail
        first[0].tile_reports[0].pe_cycles[0] = -1.0
        assert again[0].tile_reports[0].pe_cycles[0] != -1.0

    def test_evaluate_many_equals_evaluate_without_switching(self):
        profiles, _ = self.profiles()
        one, many = TransmuterSystem("2x2"), TransmuterSystem("2x2")
        many.configure(HWMode.PS)
        want = [one.evaluate_without_switching(p) for p in profiles]
        assert many.evaluate_many(profiles) == want
        assert many.current_mode is HWMode.PS
        assert many.reconfigurations == 1

    @pytest.mark.parametrize(
        "profiles",
        [
            [ops_profile(HWMode.SC, 1.0), ops_profile(HWMode.SCS, 1.0)],
            [ops_profile(HWMode.PC, 1.0), ops_profile(HWMode.PC, 1.0, tiles=2)],
        ],
        ids=["modes", "shapes"],
    )
    def test_mixed_lists_raise(self, profiles):
        s = TransmuterSystem("2x2")
        for price in (s.run_many, s.evaluate_many, s._analytic.evaluate):
            with pytest.raises(ConfigurationError):
                price(profiles)
        with pytest.raises(ConfigurationError):
            s.run_many([profiles[0].freeze(), profiles[1].freeze()])
        assert s.current_mode is None and s.reconfigurations == 0

    def test_empty_list(self):
        s = TransmuterSystem("2x2")
        assert s.run_many([]) == []
        assert s.evaluate_many([]) == []
        assert s._analytic.evaluate([]) == []
        assert s.current_mode is None and s.reconfigurations == 0
