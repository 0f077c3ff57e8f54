"""Documentation cannot rot: execute the README's quickstart snippet and
check the examples stay importable/runnable in-process."""

import re
import runpy
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestReadmeQuickstart:
    def test_quickstart_code_block_runs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert blocks, "README lost its quickstart code block"
        snippet = blocks[0]
        # Shrink the workload so the doc test stays fast.
        snippet = snippet.replace("horizon_minutes=2880", "horizon_minutes=240")
        namespace: dict = {}
        exec(compile(snippet, "README.md", "exec"), namespace)  # noqa: S102
        assert "pulse" in namespace and "fixed" in namespace
        assert namespace["pulse"].keepalive_cost_usd <= namespace[
            "fixed"
        ].keepalive_cost_usd

    def test_fleet_snippet_runs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert len(blocks) >= 2, "README lost its fleet-scale code block"
        snippet = blocks[1]
        assert 'engine="fleet"' in snippet
        # Shrink the fleet so the doc test stays fast.
        snippet = snippet.replace("n_functions=10_000", "n_functions=200")
        snippet = snippet.replace("horizon_minutes=720", "horizon_minutes=120")
        namespace: dict = {}
        exec(compile(snippet, "README.md", "exec"), namespace)  # noqa: S102
        assert namespace["result"].n_invocations > 0

    def test_fleet_obs_snippet_runs(self, tmp_path, monkeypatch):
        readme = (REPO_ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert len(blocks) >= 3, "README lost its fleet observability block"
        snippet = blocks[2]
        assert "trace_sample" in snippet and "write_prometheus" in snippet
        # Shrink the fleet and keep the exported files in tmp.
        snippet = snippet.replace("n_functions=10_000", "n_functions=200")
        snippet = snippet.replace("horizon_minutes=240", "horizon_minutes=60")
        monkeypatch.chdir(tmp_path)
        namespace: dict = {}
        exec(compile(snippet, "README.md", "exec"), namespace)  # noqa: S102
        assert namespace["result"].n_invocations > 0
        assert (tmp_path / "fleet-run.jsonl").exists()
        assert (tmp_path / "fleet-metrics.prom").exists()

    def test_readme_references_existing_files(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for rel in re.findall(r"`(examples/[a-z_]+\.py)`", readme):
            assert (REPO_ROOT / rel).exists(), rel

    def test_documented_serve_invocations_parse(self):
        """Every `python -m repro serve ...` line in the docs must parse
        against the real CLI — a renamed or removed flag rots the
        crash-recovery quickstart silently otherwise."""
        import shlex

        from repro.cli import build_parser

        parser = build_parser()
        commands = []
        for doc in ("README.md", "docs/architecture.md"):
            for line in (REPO_ROOT / doc).read_text().splitlines():
                line = line.strip()
                if "-m repro serve" not in line or line.startswith("#"):
                    continue
                # Strip any env-var prefix, the interpreter invocation,
                # and a trailing comment.
                argv = shlex.split(line, comments=True)
                argv = argv[argv.index("repro") + 1 :]
                commands.append((doc, argv))
        assert len(commands) >= 4, "README lost its serve quickstart lines"
        for doc, argv in commands:
            assert argv[0] == "serve", (doc, argv)
            args = parser.parse_args(argv)
            assert args.func is not None, (doc, argv)

    def test_documented_serve_flags_exist(self):
        """Flags the durability docs name must exist on the serve parser."""
        from repro.cli import build_parser

        source = None
        for action in build_parser()._subparsers._group_actions:
            source = action.choices["serve"].format_help()
        for flag in ("--journal-dir", "--recover", "--compact-every",
                     "--token", "--max-sessions", "--max-inflight",
                     "--deadline-s", "--max-body-mb"):
            assert flag in source, flag


class TestExamples:
    @pytest.mark.parametrize(
        "example",
        [
            "quickstart.py",
            "trace_analysis.py",
            "custom_policy.py",
        ],
    )
    def test_example_runs_in_process(self, example, capsys, monkeypatch):
        # Shrink horizons via a tiny shim: the examples build their traces
        # with SyntheticTraceConfig; patch its default horizon down.
        import repro.traces.synthetic as synth

        original = synth.SyntheticTraceConfig

        def small(*args, **kwargs):
            kwargs["horizon_minutes"] = min(
                kwargs.get("horizon_minutes", 240), 240
            )
            return original(*args, **kwargs)

        monkeypatch.setattr(synth, "SyntheticTraceConfig", small)
        # Examples import the symbol directly from `repro`, patch there too.
        import repro

        monkeypatch.setattr(repro, "SyntheticTraceConfig", small)
        path = REPO_ROOT / "examples" / example
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out.strip()
