"""``lint --deep --changed`` must not blind the interprocedural tier.

The deep/whole-program rules see violations that *span* modules — the
half in an unchanged file is load-bearing context.  The git-aware
``--changed`` selection therefore analyzes the full scope and only
filters *reported* locations to the changed subset
(``lint_paths(..., restrict_to=...)``); these are the regression tests
for the old behavior, which fed the changed-file subset to the
analysis itself and silently lost the cross-module half.
"""

from pathlib import Path

from repro.analysis import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
RPR015_DIR = FIXTURES / "rpr015_bad"
DRIVER = RPR015_DIR / "driver.py"


class TestRestrictTo:
    def test_restricted_run_keeps_whole_project_context(self):
        """Reporting only on driver.py must still surface the
        cross-module RPR015 violation (steps.py provides the raise)."""
        violations, checked = lint_paths(
            [RPR015_DIR],
            select=["RPR015"],
            deep=True,
            restrict_to=[DRIVER],
        )
        assert checked == 1  # only the restricted file is reported on
        assert [v.rule for v in violations] == ["RPR015"]
        assert violations[0].path.endswith("driver.py")

    def test_naive_subset_analysis_would_miss_it(self):
        """The defect this fixes: analyzing the changed file alone
        (the old --changed behavior) cannot see the violation."""
        violations, checked = lint_paths(
            [DRIVER], select=["RPR015"], deep=True
        )
        assert checked == 1
        assert violations == []

    def test_restrict_to_outside_scope_reports_nothing(self):
        violations, checked = lint_paths(
            [RPR015_DIR],
            select=["RPR015"],
            deep=True,
            restrict_to=[FIXTURES / "rpr015_bad.py"],
        )
        assert checked == 0
        assert violations == []


class TestChangedFlagCli:
    def test_changed_deep_lint_analyzes_the_full_scope(
        self, monkeypatch, capsys
    ):
        """`repro-bfs lint --deep --changed` with only driver.py
        changed must still report the cross-module violation."""
        import repro.analysis
        from repro.cli import main

        monkeypatch.setattr(
            repro.analysis,
            "changed_python_files",
            lambda paths: [DRIVER],
        )
        code = main(
            ["lint", "--deep", "--select", "RPR015",
             "--changed", str(RPR015_DIR)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "RPR015" in captured.out
        assert "driver.py" in captured.out
        assert "1 file(s)" in captured.err

    def test_changed_with_no_changes_short_circuits(
        self, monkeypatch, capsys
    ):
        import repro.analysis
        from repro.cli import main

        monkeypatch.setattr(
            repro.analysis, "changed_python_files", lambda paths: []
        )
        code = main(["lint", "--deep", "--changed", str(RPR015_DIR)])
        assert code == 0
        assert "no changed" in capsys.readouterr().out
