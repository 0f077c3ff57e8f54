"""The lint engine itself: parsing, suppressions, selection, reporters."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import analysis
from repro.analysis import engine
from repro.analysis import (
    META_RULE_ID,
    Finding,
    Severity,
    lint_paths,
    make_rules,
    render_json,
    render_text,
    rule_ids,
    rule_summaries,
    run_lint,
)


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


@pytest.fixture()
def bad_file(tmp_path: Path) -> Path:
    # Under runtime/ so the determinism rule is in scope.
    return write(tmp_path, "runtime/bad.py", "import random\n")


class TestEngineBasics:
    def test_finds_planted_violation(self, bad_file):
        report = lint_paths([bad_file])
        assert not report.clean
        assert report.exit_code == 1
        assert [f.rule for f in report.findings] == ["RPR001"]
        assert report.findings[0].line == 1

    def test_clean_report_exit_zero(self, tmp_path):
        path = write(tmp_path, "runtime/ok.py", "X = 1\n")
        report = lint_paths([path])
        assert report.clean and report.exit_code == 0

    def test_findings_sorted_by_position(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/two.py",
            "import random\nimport secrets\n",
        )
        report = lint_paths([path])
        assert [f.line for f in report.findings] == [1, 2]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        path = write(tmp_path, "runtime/broken.py", "def f(:\n")
        report = lint_paths([path])
        assert [f.rule for f in report.findings] == [META_RULE_ID]
        assert "cannot parse" in report.findings[0].message

    def test_registry_lists_the_rule_pack(self):
        assert rule_ids() == [
            "RPR001", "RPR003", "RPR005", "RPR006", "RPR007", "RPR008",
            "RPR009",
        ]
        summaries = rule_summaries()
        assert set(summaries) == set(rule_ids())
        assert all(summaries.values())

    def test_rule_selection(self, bad_file):
        assert lint_paths([bad_file], rule_ids=["RPR005"]).clean
        assert not lint_paths([bad_file], rule_ids=["RPR001"]).clean

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="RPR999"):
            make_rules(["RPR999"])


class TestSuppressions:
    def test_inline_waiver_with_reason(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/waived.py",
            "import random  # repro: lint-ok[RPR001] fixture needs it\n",
        )
        assert lint_paths([path]).clean

    def test_standalone_waiver_covers_next_line(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/waived.py",
            "# repro: lint-ok[RPR001] fixture needs it\nimport random\n",
        )
        assert lint_paths([path]).clean

    def test_multiline_waiver_comment_block(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/waived.py",
            "# repro: lint-ok[RPR001] a reason too long to fit on\n"
            "# one comment line continues here\n"
            "import random\n",
        )
        assert lint_paths([path]).clean

    def test_star_waives_every_rule(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/waived.py",
            "import random  # repro: lint-ok[*] fixture sandbox\n",
        )
        assert lint_paths([path]).clean

    def test_waiver_for_other_rule_does_not_cover(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/waived.py",
            "import random  # repro: lint-ok[RPR005] wrong rule\n",
        )
        assert [f.rule for f in lint_paths([path]).findings] == ["RPR001"]

    def test_waiver_without_reason_is_itself_a_finding(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/waived.py",
            "import random  # repro: lint-ok[RPR001]\n",
        )
        rules = {f.rule for f in lint_paths([path]).findings}
        # The reasonless waiver is RPR000 *and* fails to suppress RPR001.
        assert rules == {META_RULE_ID, "RPR001"}

    def test_waiver_naming_unknown_rule_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/ok.py",
            "X = 1  # repro: lint-ok[RPR777] no such rule\n",
        )
        findings = lint_paths([path]).findings
        assert [f.rule for f in findings] == [META_RULE_ID]
        assert "RPR777" in findings[0].message

    def test_lint_ok_inside_string_literal_is_not_a_waiver(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/strlit.py",
            'DOC = "# repro: lint-ok[RPR001] not a comment"\nimport random\n',
        )
        assert [f.rule for f in lint_paths([path]).findings] == ["RPR001"]


class TestFileDiscovery:
    def test_directories_expand_and_pycache_skipped(self, tmp_path):
        write(tmp_path, "pkg/a.py", "A = 1\n")
        write(tmp_path, "pkg/__pycache__/junk.py", "import random\n")
        files = analysis.iter_python_files([tmp_path])
        assert [p.name for p in files] == ["a.py"]

    def test_duplicates_collapse(self, tmp_path):
        path = write(tmp_path, "pkg/a.py", "A = 1\n")
        files = analysis.iter_python_files([path, path, tmp_path])
        assert len(files) == 1

    def test_explicit_file_kept_even_outside_scope(self, tmp_path):
        path = write(tmp_path, "loose.py", "import random\n")
        # Out of the determinism scope: linted, but RPR001 does not apply.
        assert lint_paths([path]).clean


class TestReporters:
    def test_text_line_shape(self, bad_file):
        report = lint_paths([bad_file])
        first = render_text(report).splitlines()[0]
        assert first.startswith(f"{report.findings[0].path}:1:0: RPR001 ")
        assert "[error]" in first

    def test_text_summary_trailer(self, bad_file):
        assert "1 finding(s)" in render_text(lint_paths([bad_file]))
        clean = lint_paths([bad_file], rule_ids=["RPR005"])
        assert "clean" in render_text(clean)

    def test_json_document(self, bad_file):
        report = lint_paths([bad_file])
        doc = json.loads(render_json(report))
        assert doc["version"] == 1
        assert doc["clean"] is False
        assert doc["n_files"] == 1
        assert doc["rules"] == rule_ids()
        (finding,) = doc["findings"]
        assert finding["rule"] == "RPR001"
        assert finding["severity"] == "error"
        assert finding["line"] == 1

    def test_finding_round_trip(self):
        finding = Finding("a.py", 3, 7, "RPR001", Severity.ERROR, "msg")
        assert finding.to_dict() == {
            "path": "a.py",
            "line": 3,
            "col": 7,
            "rule": "RPR001",
            "severity": "error",
            "message": "msg",
        }


class TestRunLint:
    def test_run_lint_counts_files(self, tmp_path):
        a = write(tmp_path, "runtime/a.py", "A = 1\n")
        b = write(tmp_path, "runtime/b.py", "B = 2\n")
        report = run_lint([a, b])
        assert report.n_files == 2 and report.clean

    def test_by_rule_groups(self, tmp_path):
        path = write(
            tmp_path, "runtime/two.py", "import random\nimport secrets\n"
        )
        grouped = lint_paths([path]).by_rule()
        assert len(grouped["RPR001"]) == 2

    @pytest.mark.parametrize(
        ("scope", "expected"),
        [
            (staticmethod(lambda path: "serve" in path.parts), ["app.py"]),
            (None, ["app.py", "sim.py"]),
        ],
        ids=["serve-scope", "no-scope"],
    )
    def test_finalize_sees_only_its_project_scope(
        self, tmp_path, monkeypatch, scope, expected
    ):
        seen: list[list[str]] = []

        class ScopedRule(analysis.Rule):
            id = "RPR099"
            summary = "records what finalize receives"
            project_scope = scope

            def finalize(self, context):
                seen.append([m.path.name for m in context])
                return ()

        monkeypatch.setitem(engine._RULE_TYPES, ScopedRule.id, ScopedRule)
        serve = write(tmp_path, "serve/app.py", "A = 1\n")
        other = write(tmp_path, "runtime/sim.py", "B = 2\n")
        report = run_lint([serve, other], rule_ids=[ScopedRule.id])
        assert report.clean and report.n_files == 2
        assert seen == [expected]
