"""The ``repro lint`` subcommand: exit codes, formats, rule selection."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.utils.specs import SpecError


@pytest.fixture()
def planted_dir(tmp_path: Path) -> Path:
    """A sandbox with one determinism violation under runtime/."""
    bad = tmp_path / "runtime" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        textwrap.dedent(
            """\
            import random

            def draw():
                return random.random()
            """
        )
    )
    return tmp_path


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert args.format == "text"
        assert args.rule is None

    def test_lint_accepts_paths_rules_format(self):
        args = build_parser().parse_args(
            ["lint", "src", "tests", "--rule", "RPR001", "--format", "json"]
        )
        assert args.paths == ["src", "tests"]
        assert args.rule == ["RPR001"]
        assert args.format == "json"

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "yaml"])

    @pytest.mark.parametrize(
        "flags",
        [["--jobs", "1"], ["--changed"], ["--cache-dir", "x"]],
        ids=["jobs", "changed", "cache-dir"],
    )
    def test_removed_speed_flags_rejected(self, flags, capsys):
        # Lint is one sequential pass: PATHS, --format and --rule only.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["lint", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLintCommand:
    def test_shipped_tree_exits_zero(self, capsys):
        # The ISSUE acceptance criterion: the tree we ship lints clean.
        rc = main(["lint"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_planted_violation_exits_nonzero(self, planted_dir, capsys):
        rc = main(["lint", str(planted_dir)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "bad.py" in out

    def test_json_format_is_machine_readable(self, planted_dir, capsys):
        rc = main(["lint", "--format", "json", str(planted_dir)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is False
        assert {f["rule"] for f in doc["findings"]} == {"RPR001"}

    def test_rule_filter_narrows_the_run(self, planted_dir):
        assert main(["lint", "--rule", "RPR005", str(planted_dir)]) == 0
        assert main(["lint", "--rule", "rpr001", str(planted_dir)]) == 1

    def test_rule_filter_accepts_comma_lists(self, planted_dir):
        assert main(["lint", "--rule", "rpr003,RPR005", str(planted_dir)]) == 0

    def test_unknown_rule_is_a_spec_error(self, planted_dir):
        with pytest.raises(SpecError, match="RPR999"):
            main(["lint", "--rule", "RPR999", str(planted_dir)])

    def test_nonexistent_path_is_a_spec_error(self):
        with pytest.raises(SpecError, match="does not exist"):
            main(["lint", "/no/such/tree"])

    def test_sarif_format(self, planted_dir, capsys):
        rc = main(["lint", "--format", "sarif", str(planted_dir)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert {r["ruleId"] for r in run["results"]} == {"RPR001"}

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        rc = main(["lint", str(tmp_path)])
        assert rc == 2
        assert "RPR000" in capsys.readouterr().out

    def test_explicit_file_operand_always_linted(self, planted_dir, capsys):
        # Naming the file directly lints exactly it, not its directory.
        rc = main(["lint", str(planted_dir / "runtime" / "bad.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "1 file(s)" in out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--help"])
        out = capsys.readouterr().out
        assert "0 = clean" in out
        assert "1 = findings" in out
        assert "2 = engine error" in out
