"""Golden fixtures for the whole-program rules (RPR015, RPR016, RPR019).

Every bad fixture plants a *two-hop* violation: the defect is only
visible once effects have crossed at least two call edges (or, for the
two-module RPR015 package, a module boundary), which the retired
one-level propagation engine provably cannot see — each fixture gets a
companion test demonstrating exactly that blind spot.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.effects import (
    module_effects,
    propagate,
    propagate_one_level,
)

FIXTURES = Path(__file__).parent / "fixtures"

FILE_RULES = ("RPR015", "RPR016", "RPR019")
DIR_RULES = ("RPR015",)


def _lint_file_fixture(name: str, rule: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(
        text, path=f"src/repro/bfs/{name}", select=[rule], deep=True
    )


def _lint_dir_fixture(name: str, rule: str):
    violations, checked = lint_paths(
        [FIXTURES / name], select=[rule], deep=True
    )
    assert checked == 2, f"{name}: expected a two-module fixture"
    return violations


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule", FILE_RULES)
    def test_bad_file_fixture_is_caught(self, rule):
        name = f"{rule.lower()}_bad.py"
        violations = _lint_file_fixture(name, rule)
        assert violations, f"{name}: seeded bug not detected"
        assert {v.rule for v in violations} == {rule}

    @pytest.mark.parametrize("rule", FILE_RULES)
    def test_clean_file_fixture_is_silent(self, rule):
        name = f"{rule.lower()}_clean.py"
        assert _lint_file_fixture(name, rule) == [], (
            f"{name}: false positive on the clean twin"
        )

    @pytest.mark.parametrize("rule", DIR_RULES)
    def test_bad_dir_fixture_is_caught(self, rule):
        name = f"{rule.lower()}_bad"
        violations = _lint_dir_fixture(name, rule)
        assert violations, f"{name}: seeded bug not detected"
        assert {v.rule for v in violations} == {rule}

    @pytest.mark.parametrize("rule", DIR_RULES)
    def test_clean_dir_fixture_is_silent(self, rule):
        name = f"{rule.lower()}_clean"
        assert _lint_dir_fixture(name, rule) == [], (
            f"{name}: false positive on the clean twin"
        )


class TestMessages:
    def test_rpr015_names_the_raising_call(self):
        violations = _lint_file_fixture("rpr015_bad.py", "RPR015")
        assert any("_drive" in v.message for v in violations)
        assert any("finally" in v.message for v in violations)

    def test_rpr016_names_the_public_boundary(self):
        violations = _lint_file_fixture("rpr016_bad.py", "RPR016")
        assert any("frontier_view" in v.message for v in violations)
        assert any("detach" in v.message for v in violations)

    def test_rpr015_dir_reports_the_cross_module_raise(self):
        violations = _lint_dir_fixture("rpr015_bad", "RPR015")
        v = violations[0]
        assert Path(v.path).name == "driver.py"
        assert "steps.drive" in v.message and "finally" in v.message

    def test_rpr019_names_the_cycle(self):
        violations = _lint_file_fixture("rpr019_bad.py", "RPR019")
        msg = violations[0].message
        assert "scan_vertex" in msg and "visit_vertex" in msg


class TestOneLevelBlindSpots:
    """Each bad fixture's defect is invisible to the one-level engine."""

    def _effects(self, name, engine):
        tree = ast.parse((FIXTURES / name).read_text(encoding="utf-8"))
        return engine(module_effects(tree))

    def test_rpr015_raise_is_two_hops_down(self):
        one = self._effects("rpr015_bad.py", propagate_one_level)
        assert one["_mid"].raises  # one hop: visible
        assert not one["_drive"].raises  # two hops: blind
        full = self._effects("rpr015_bad.py", propagate)
        assert full["_drive"].raises

    def test_rpr016_alias_needs_call_graph_resolution(self):
        """returns_ws only chains once `_mid` in `returns_calls` is
        resolved against the call graph — module-local propagation
        (the retired engine's world) never marks the public boundary."""
        one = self._effects("rpr016_bad.py", propagate_one_level)
        assert one["_grab"].returns_ws
        assert not one["frontier_view"].returns_ws
        from repro.analysis.callgraph import project_from_sources

        source = (FIXTURES / "rpr016_bad.py").read_text(encoding="utf-8")
        p = project_from_sources([("rpr016_bad.py", source)])
        assert p.summaries["rpr016_bad.frontier_view"].returns_ws

    def test_rpr015_raise_is_in_another_module(self):
        """Module-local propagation of driver.py alone — even run to
        fixpoint — cannot see that steps.py's ``drive`` raises."""
        from repro.analysis.callgraph import project_from_sources

        driver = FIXTURES / "rpr015_bad" / "driver.py"
        source = driver.read_text(encoding="utf-8")
        local = propagate(module_effects(ast.parse(source)))
        assert not local["leaky_sweep"].raises
        steps = FIXTURES / "rpr015_bad" / "steps.py"
        p = project_from_sources(
            [(driver, source), (steps, steps.read_text(encoding="utf-8"))]
        )
        assert p.summaries["driver.leaky_sweep"].raises


class TestOneSuppressionSource:
    """``lint --deep`` and the whole-program baseline read one
    ``# repro: noqa`` map, so a suppressed finding is absent from
    both gates, and an unsuppressed one is present in both."""

    def _plant(self, tmp_path, marker: str):
        source = (FIXTURES / "rpr015_bad.py").read_text(encoding="utf-8")
        acquisition = "    pool = ThreadPoolExecutor(max_workers=threads)"
        assert acquisition in source
        path = tmp_path / "rpr015_planted.py"
        path.write_text(
            source.replace(acquisition, acquisition + marker),
            encoding="utf-8",
        )
        return path

    def _gates(self, path, tmp_path):
        import json

        from repro.analysis import build_project, program_report
        from repro.cli import main

        deep, _ = lint_paths([path], select=["RPR015"], deep=True)
        report = program_report(build_project([path]))
        baseline = tmp_path / "baseline.json"
        assert main(
            ["callgraph", str(path), "--write-baseline", str(baseline)]
        ) == 0
        written = json.loads(baseline.read_text(encoding="utf-8"))
        return deep, report["RPR015"], written["violations"]

    @pytest.mark.parametrize(
        ("marker", "reported"),
        [
            ("  # repro: noqa[RPR015]", False),
            ("  # repro: noqa[RPR016]", True),
            ("", True),
        ],
        ids=["suppressed", "other-code", "unmarked"],
    )
    def test_both_gates_give_one_verdict(
        self, tmp_path, capsys, marker, reported
    ):
        path = self._plant(tmp_path, marker)
        deep, report, written = self._gates(path, tmp_path)
        if not reported:
            assert (deep, report, written) == ([], {}, {})
            return
        assert [v.rule for v in deep] == ["RPR015"]
        assert [ln for ln, _, _ in report[str(path)]] == [deep[0].line]
        assert list(written) == ["RPR015"]
