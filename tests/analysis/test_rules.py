"""Per-rule fixture tests: each rule fires on its positive cases, stays
silent on the negatives, and honours inline/file suppression."""

import os

import pytest

from repro.analysis import lint_paths
from repro.analysis.linter import iter_python_files, package_relative
from repro.analysis.rules import ALL_RULES, RULES_BY_ID, ModuleContext

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _lint(name, rule):
    return lint_paths([_fixture(name)], rules=[rule])


def _functions_of(findings, name):
    """Map each finding to the enclosing fixture function (by line)."""
    with open(_fixture(name), "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    starts = [
        (i + 1, line.split("(")[0].replace("def ", "").strip())
        for i, line in enumerate(lines)
        if line.startswith("def ")
    ]
    out = []
    for f in findings:
        owner = None
        for lineno, fn in starts:
            if lineno <= f.line:
                owner = fn
        out.append(owner)
    return out


class TestRuleCatalogue:
    def test_ten_rules_registered(self):
        assert [r.rule_id for r in ALL_RULES] == [
            "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10",
        ]
        assert set(RULES_BY_ID) == set(r.rule_id for r in ALL_RULES)
        for rule in ALL_RULES:
            assert rule.rule_name
            assert rule.description
        # the split drives orchestration: local rules run per file (and
        # cache per file), program rules run once over the model.
        local = [r for r in ALL_RULES if not getattr(r, "program_rule", False)]
        program = [r for r in ALL_RULES if getattr(r, "program_rule", False)]
        assert [r.rule_id for r in local] == ["R1", "R2", "R3", "R4", "R5"]
        assert [r.rule_id for r in program] == ["R6", "R7", "R8", "R9", "R10"]

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_paths([_fixture("r1_cases.py")], rules=["R99"])


class TestR1BareAssert:
    def test_positive_and_suppressed(self):
        result = _lint("r1_cases.py", "R1")
        assert _functions_of(result.active, "r1_cases.py") == ["positive"]
        sup = [f for f in result.findings if f.suppressed]
        assert _functions_of(sup, "r1_cases.py") == ["suppressed"]
        assert "python -O" in result.active[0].message

    def test_negative_silent(self):
        result = _lint("r1_cases.py", "R1")
        assert "negative" not in _functions_of(result.findings, "r1_cases.py")


class TestR2UnitMixing:
    def test_positive_and_suppressed(self):
        result = _lint("r2_cases.py", "R2")
        assert _functions_of(result.active, "r2_cases.py") == [
            "positive_add",
            "positive_compare",
        ]
        assert "cycles" in result.active[0].message
        assert "joules" in result.active[0].message
        sup = [f for f in result.findings if f.suppressed]
        assert _functions_of(sup, "r2_cases.py") == ["suppressed"]

    def test_negatives_silent(self):
        owners = _functions_of(_lint("r2_cases.py", "R2").findings, "r2_cases.py")
        assert not any(o.startswith("negative") for o in owners)


class TestR3MagicConstant:
    def test_positive_and_suppressed(self):
        result = _lint("r3_cases.py", "R3")
        assert _functions_of(result.active, "r3_cases.py") == [
            "positive_clock",
            "positive_period",
        ]
        sup = [f for f in result.findings if f.suppressed]
        assert _functions_of(sup, "r3_cases.py") == ["suppressed"]

    def test_named_module_constant_exempt(self):
        result = _lint("r3_cases.py", "R3")
        assert all(f.line > 3 for f in result.findings)  # CLOCK_HZ = 1e9

    def test_hardware_modules_exempt(self):
        # The same source reported under a hardware/ path is in scope for
        # *defining* these constants, so R3 stays silent there.
        with open(_fixture("r3_cases.py"), "r", encoding="utf-8") as fh:
            ctx = ModuleContext.parse("repro/hardware/params.py", fh.read())
        assert RULES_BY_ID["R3"].check(ctx) == []


class TestR4Nondeterminism:
    def test_positive_and_suppressed(self):
        result = _lint("r4_cases.py", "R4")
        assert _functions_of(result.active, "r4_cases.py") == [
            "positive_legacy_rng",
            "positive_unseeded_generator",
            "positive_stdlib_rng",
            "positive_wallclock",
        ]
        sup = [f for f in result.findings if f.suppressed]
        assert _functions_of(sup, "r4_cases.py") == ["suppressed"]

    def test_seeded_generator_silent(self):
        owners = _functions_of(_lint("r4_cases.py", "R4").findings, "r4_cases.py")
        assert "negative_seeded_generator" not in owners

    def test_allowlisted_module_may_read_wallclock(self):
        with open(_fixture("r4_cases.py"), "r", encoding="utf-8") as fh:
            source = fh.read()

        def messages(path):
            ctx = ModuleContext.parse(path, source)
            return [f.message for f in RULES_BY_ID["R4"].check(ctx)]

        tracer = messages("repro/obs/tracer.py")
        assert not any("wall clock" in m for m in tracer)
        assert any("legacy global RNG" in m for m in tracer)  # RNG still applies
        # The counters module measures nothing, so it is not allowlisted.
        assert any("wall clock" in m for m in messages("repro/perf.py"))


class TestR5KernelPurity:
    def test_positive_and_suppressed(self):
        result = _lint("r5_cases.py", "R5")
        owners = _functions_of(result.active, "r5_cases.py")
        assert owners == ["inner_product", "inner_product", "outer_product"]
        hows = [f.message for f in result.active]
        assert any("subscript store" in m for m in hows)
        assert any("augmented assignment" in m for m in hows)
        assert any(".sort() call" in m for m in hows)
        sup = [f for f in result.findings if f.suppressed]
        assert _functions_of(sup, "r5_cases.py") == ["inner_product_batch"]

    def test_unregistered_function_and_copies_silent(self):
        owners = _functions_of(_lint("r5_cases.py", "R5").findings, "r5_cases.py")
        assert "helper" not in owners


class TestSuppression:
    def test_skip_file_silences_everything(self):
        result = lint_paths([_fixture("skipped.py")])
        assert result.findings == []
        assert result.files_checked == 1

    def test_bare_ignore_silences_all_rules(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("assert 1e9  # repro-lint: ignore\n")
        result = lint_paths([str(src)])
        assert result.active == []
        assert {f.rule for f in result.findings} == {"R1", "R3"}
        assert all(f.suppressed for f in result.findings)

    def test_comment_line_above_suppresses(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("# repro-lint: ignore[R1]\nassert True\n")
        result = lint_paths([str(src)])
        assert result.active == []
        assert result.findings[0].suppressed

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("assert True  # repro-lint: ignore[R3]\n")
        result = lint_paths([str(src)])
        assert [f.rule for f in result.active] == ["R1"]


class TestDiscovery:
    def test_iter_python_files_sorted_and_filtered(self, tmp_path):
        (tmp_path / "b.py").write_text("")
        (tmp_path / "a.py").write_text("")
        (tmp_path / "notes.txt").write_text("")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "a.cpython-311.py").write_text("")
        files = [os.path.basename(p) for p in iter_python_files([str(tmp_path)])]
        assert files == ["a.py", "b.py"]

    def test_package_relative_walks_to_package_root(self):
        import repro.spmv.inner as inner

        assert package_relative(inner.__file__) == "repro/spmv/inner.py"

    def test_non_package_file_keeps_basename(self):
        assert package_relative(_fixture("r1_cases.py")) == "r1_cases.py"

    def test_parse_error_reported_not_raised(self, tmp_path):
        src = tmp_path / "broken.py"
        src.write_text("def f(:\n")
        result = lint_paths([str(src)])
        assert len(result.parse_errors) == 1
        assert not result.ok
