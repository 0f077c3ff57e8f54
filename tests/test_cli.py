"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.traces.azure import write_azure_csv
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "pulse", "openwhisk", "--horizon", "100"]
        )
        assert args.policies == ["pulse", "openwhisk"]
        assert args.horizon == 100

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "sorcery"])

    def test_reproduce_choices(self):
        args = build_parser().parse_args(["reproduce", "fig6"])
        assert args.experiment == "fig6"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])

    def test_every_default_is_among_its_choices(self):
        # argparse checks choices only on values given on the command
        # line, so a default naming no choice (a renamed policy) would
        # reach the command unparsed.
        checked = 0
        for prog, parser in _all_parsers(build_parser()):
            for action in parser._actions:
                if (
                    action.choices is None
                    or isinstance(action, argparse._SubParsersAction)
                    or action.default in (None, argparse.SUPPRESS)
                ):
                    continue
                default = action.default
                if isinstance(default, str) and callable(action.type):
                    default = action.type(default)  # as argparse does
                values = default if isinstance(default, list) else [default]
                for value in values:
                    assert value in action.choices, (
                        f"{prog} {action.dest}: default {value!r} is not "
                        f"among its choices"
                    )
                checked += 1
        assert checked >= 5


def _all_parsers(parser):
    yield parser.prog, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _all_parsers(sub)


class TestCommands:
    def test_simulate_prints_table(self, capsys):
        rc = main(["simulate", "pulse", "all-low", "--horizon", "240", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PULSE" in out
        assert "all-low" in out
        assert "keepalive_cost_usd" in out

    def test_simulate_long_window_policy(self, capsys):
        rc = main(["simulate", "wild", "--horizon", "240", "--seed", "5"])
        assert rc == 0
        assert "Wild" in capsys.readouterr().out

    def test_profile(self, capsys):
        rc = main(["profile", "--warm-samples", "20", "--cold-samples", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GPT-Large" in out

    def test_trace_summary_and_export(self, capsys, tmp_path):
        rc = main(["trace", "--horizon", "240", "--export", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Per-function activity" in out
        assert (tmp_path / "out").exists()

    def test_trace_loads_azure_csv(self, capsys, tmp_path):
        trace = generate_trace(SyntheticTraceConfig(horizon_minutes=200, seed=1))
        paths = write_azure_csv(trace, tmp_path)
        rc = main(
            ["trace", "--azure-csv", *[str(p) for p in paths], "--functions", "4"]
        )
        assert rc == 0
        assert "Per-function activity" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment", ["fig1", "fig2", "tables2-3", "fig5"])
    def test_reproduce_fast_experiments(self, capsys, experiment):
        rc = main(
            ["reproduce", experiment, "--horizon", "480", "--runs", "1", "--seed", "2"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip()

    def test_reproduce_fig6(self, capsys):
        rc = main(["reproduce", "fig6", "--horizon", "360", "--runs", "1"])
        assert rc == 0
        assert "keepalive_cost" in capsys.readouterr().out
