"""The incremental lint cache: correctness before speed."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import LintCache, lint_paths, render_json

CLEAN = """\
def f():
    return 1
"""

DIRTY_RUNTIME = """\
import random

def f():
    return random.random()
"""


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def make_tree(tmp_path: Path) -> list[Path]:
    """Three cacheable files, one of them with a real finding."""
    return [
        write(tmp_path, "pkg/a.py", CLEAN),
        write(tmp_path, "pkg/b.py", CLEAN),
        write(tmp_path, "runtime/c.py", DIRTY_RUNTIME),
    ]


class TestWarmRun:
    def test_second_run_is_all_hits_and_byte_identical(self, tmp_path):
        paths = make_tree(tmp_path)
        cache = LintCache(tmp_path / "cache")

        cold = lint_paths(paths, cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(paths)

        warm = lint_paths(paths, cache=cache)
        assert cache.hits == len(paths)
        assert cache.misses == 0
        assert render_json(warm) == render_json(cold)
        # The run found something — identical reports are not
        # vacuously identical empty ones.
        assert warm.findings

    def test_parse_error_is_cached_and_survives_warm(self, tmp_path):
        paths = [write(tmp_path, "pkg/broken.py", "def f(:\n")]
        cache = LintCache(tmp_path / "cache")
        cold = lint_paths(paths, cache=cache)
        warm = lint_paths(paths, cache=cache)
        assert cache.hits == 1
        assert render_json(warm) == render_json(cold)
        assert warm.exit_code == 2


class TestEditOneFile:
    def test_only_the_edited_file_re_lints(self, tmp_path):
        paths = make_tree(tmp_path)
        cache = LintCache(tmp_path / "cache")
        lint_paths(paths, cache=cache)

        write(tmp_path, "runtime/c.py", CLEAN)  # fix the finding
        report = lint_paths(paths, cache=cache)
        assert cache.hits == len(paths) - 1
        assert cache.misses == 1
        assert report.findings == []

        # ... and the fix is itself cached for the next run.
        lint_paths(paths, cache=cache)
        assert cache.hits == len(paths)
        assert cache.misses == 0

    def test_byte_identical_to_an_uncached_run_after_the_edit(self, tmp_path):
        paths = make_tree(tmp_path)
        cache = LintCache(tmp_path / "cache")
        lint_paths(paths, cache=cache)

        write(tmp_path, "pkg/b.py", "import secrets\n")
        warm = lint_paths(paths, cache=cache)
        fresh = lint_paths(paths)  # no cache at all
        assert render_json(warm) == render_json(fresh)


class TestFingerprint:
    def test_rule_selection_change_invalidates_everything(self, tmp_path):
        paths = make_tree(tmp_path)
        cache = LintCache(tmp_path / "cache")
        lint_paths(paths, rule_ids=["RPR001"], cache=cache)
        assert cache.misses == len(paths)

        lint_paths(paths, rule_ids=["RPR001", "RPR006"], cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(paths)

        # Back to the original selection: also cold — the cache file
        # holds one fingerprint, not one per selection.
        lint_paths(paths, rule_ids=["RPR001"], cache=cache)
        assert cache.hits == 0

    def test_corrupt_cache_file_is_a_cold_run(self, tmp_path):
        paths = make_tree(tmp_path)
        cache = LintCache(tmp_path / "cache")
        cold = lint_paths(paths, cache=cache)
        cache.path.write_text("{not json")
        warm = lint_paths(paths, cache=cache)
        assert cache.hits == 0
        assert render_json(warm) == render_json(cold)


class TestProjectScopeInteraction:
    def test_scoped_files_reparse_but_reuse_cached_findings(self, tmp_path):
        # simulator.py/fleet.py sit in RPR002's project scope: a warm
        # run must re-parse them (finalize needs real ASTs) yet still
        # reuse their cached per-file findings, and cross-file findings
        # must be recomputed identically.
        sim = write(
            tmp_path,
            "engines/simulator.py",
            """\
            def run(records, obs):
                for r in records:
                    if r.cold:
                        obs.record_cold()
            """,
        )
        fleet = write(
            tmp_path,
            "engines/fleet.py",
            """\
            def run(records, obs):
                if records and records[0].cold:
                    obs.record_cold()
            """,
        )
        cache = LintCache(tmp_path / "cache")
        cold = lint_paths([sim, fleet], cache=cache)
        warm = lint_paths([sim, fleet], cache=cache)
        assert cache.hits == 2
        assert render_json(warm) == render_json(cold)

        # Break parity in one file: the asymmetry is found on the next
        # (warm) run even though only one file changed.
        fleet.write_text(fleet.read_text().replace("obs.record_cold()", "pass"))
        report = lint_paths([sim, fleet], cache=cache)
        assert [f.rule for f in report.findings] == ["RPR002"]
