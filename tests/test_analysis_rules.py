"""The rule pack: one flagged and one clean fixture per behaviour."""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths

REPRO_ROOT = Path(repro.__file__).resolve().parent


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def rules_hit(path: Path | list[Path], *rule_ids: str) -> list[str]:
    paths = path if isinstance(path, list) else [path]
    report = lint_paths(paths, rule_ids=list(rule_ids) or None)
    return [f.rule for f in report.findings]


class TestDeterminismRPR001:
    def test_stdlib_random_import_flagged(self, tmp_path):
        path = write(tmp_path, "runtime/x.py", "import random\n")
        assert rules_hit(path, "RPR001") == ["RPR001"]

    def test_secrets_import_flagged(self, tmp_path):
        path = write(tmp_path, "faults/x.py", "from secrets import token_hex\n")
        assert rules_hit(path, "RPR001") == ["RPR001"]

    def test_unseeded_random_call_flagged(self, tmp_path):
        # The import and the call are two findings: planting a single
        # random.random() in engine code cannot slip through.
        path = write(
            tmp_path,
            "runtime/x.py",
            """\
            import random

            def draw():
                return random.random()
            """,
        )
        report = lint_paths([path], rule_ids=["RPR001"])
        assert len(report.findings) == 2
        assert any("random.random" in f.message for f in report.findings)

    def test_wall_clock_reads_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "milp/x.py",
            """\
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """,
        )
        assert rules_hit(path, "RPR001") == ["RPR001", "RPR001"]

    def test_perf_counter_allowed(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/x.py",
            """\
            import time

            def span():
                return time.perf_counter()
            """,
        )
        assert rules_hit(path, "RPR001") == []

    def test_numpy_global_draw_flagged_explicit_generator_allowed(
        self, tmp_path
    ):
        path = write(
            tmp_path,
            "sota/x.py",
            """\
            import numpy as np

            def bad():
                return np.random.rand(3)

            def good(seed):
                return np.random.default_rng(seed).random(3)
            """,
        )
        report = lint_paths([path], rule_ids=["RPR001"])
        assert len(report.findings) == 1
        assert "numpy.random.rand" in report.findings[0].message

    def test_set_iteration_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/x.py",
            """\
            def fold(items):
                total = 0
                for fid in set(items):
                    total += fid
                return total
            """,
        )
        assert rules_hit(path, "RPR001") == ["RPR001"]

    def test_comprehension_over_set_literal_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/x.py",
            "OUT = [x for x in {1, 2, 3}]\n",
        )
        assert rules_hit(path, "RPR001") == ["RPR001"]

    def test_sorted_set_iteration_allowed(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/x.py",
            """\
            def fold(items):
                return [fid for fid in sorted(set(items))]
            """,
        )
        assert rules_hit(path, "RPR001") == []

    def test_out_of_scope_module_exempt(self, tmp_path):
        path = write(tmp_path, "plotting/x.py", "import random\n")
        assert rules_hit(path, "RPR001") == []


class TestPolicyContractRPR003:
    def test_init_without_super_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "policies.py",
            """\
            from repro.runtime.policy import KeepAlivePolicy

            class BadPolicy(KeepAlivePolicy):
                def __init__(self):
                    self.window = 10
            """,
        )
        report = lint_paths([path], rule_ids=["RPR003"])
        (finding,) = report.findings
        assert "super().__init__" in finding.message

    def test_init_with_super_clean(self, tmp_path):
        path = write(
            tmp_path,
            "policies.py",
            """\
            from repro.runtime.policy import KeepAlivePolicy

            class GoodPolicy(KeepAlivePolicy):
                def __init__(self):
                    super().__init__()
                    self.window = 10
            """,
        )
        assert rules_hit(path, "RPR003") == []

    def test_bind_override_without_super_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "policies.py",
            """\
            from repro.runtime.policy import KeepAlivePolicy

            class BadPolicy(KeepAlivePolicy):
                def bind(self, assignment):
                    self.assignment = assignment
            """,
        )
        report = lint_paths([path], rule_ids=["RPR003"])
        (finding,) = report.findings
        assert "super().bind" in finding.message

    def test_lambda_on_self_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "policies.py",
            """\
            from repro.runtime.policy import KeepAlivePolicy

            class BadPolicy(KeepAlivePolicy):
                def __init__(self):
                    super().__init__()
                    self.score = lambda f: f.calls
            """,
        )
        report = lint_paths([path], rule_ids=["RPR003"])
        (finding,) = report.findings
        assert "lambda" in finding.message

    def test_module_level_mutable_state_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "policies.py",
            """\
            from repro.runtime.policy import KeepAlivePolicy

            CACHE = {}

            class SomePolicy(KeepAlivePolicy):
                pass
            """,
        )
        report = lint_paths([path], rule_ids=["RPR003"])
        (finding,) = report.findings
        assert "CACHE" in finding.message

    def test_module_without_policy_classes_exempt(self, tmp_path):
        path = write(tmp_path, "helpers.py", "CACHE = {}\n")
        assert rules_hit(path, "RPR003") == []

    def test_dunder_and_immutable_module_state_allowed(self, tmp_path):
        path = write(
            tmp_path,
            "policies.py",
            """\
            from repro.runtime.policy import KeepAlivePolicy

            __all__ = ["SomePolicy"]
            TIERS = ("low", "high")

            class SomePolicy(KeepAlivePolicy):
                pass
            """,
        )
        assert rules_hit(path, "RPR003") == []


class TestFacadeRPR007:
    def test_positional_params_in_facade_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "repro/api.py",
            """\
            def simulate(trace, assignment, policy):
                return None
            """,
        )
        report = lint_paths([path], rule_ids=["RPR007"])
        (finding,) = report.findings
        assert "assignment" in finding.message
        assert "policy" in finding.message

    def test_keyword_only_facade_clean(self, tmp_path):
        path = write(
            tmp_path,
            "repro/api.py",
            """\
            def simulate(trace, *, assignment, policy):
                return None
            """,
        )
        assert rules_hit(path, "RPR007") == []

    def test_serve_modules_are_facade(self, tmp_path):
        path = write(
            tmp_path,
            "repro/serve/session.py",
            """\
            def open_session(trace, policy):
                return None
            """,
        )
        assert rules_hit(path, "RPR007") == ["RPR007"]

    def test_private_and_nested_functions_exempt(self, tmp_path):
        path = write(
            tmp_path,
            "repro/serve/app.py",
            """\
            def _helper(a, b, c):
                return a

            def public(spec):
                def inner(a, b):
                    return a
                return inner

            class Manager:
                def method(self, sid, body):
                    return sid
            """,
        )
        assert rules_hit(path, "RPR007") == []

    def test_non_facade_module_exempt(self, tmp_path):
        path = write(
            tmp_path,
            "repro/runtime/x.py",
            """\
            def step(sim, minute, events):
                return None
            """,
        )
        assert rules_hit(path, "RPR007") == []

    def test_waiver_with_reason_accepted(self, tmp_path):
        path = write(
            tmp_path,
            "repro/api.py",
            """\
            def compare(a, b):  # repro: lint-ok[RPR007] symmetric pair
                return a is b
            """,
        )
        assert rules_hit(path, "RPR007") == []


class TestSpecStringsRPR005:
    def test_bad_from_spec_literal_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            """\
            from repro.faults.plan import FaultPlan

            PLAN = FaultPlan.from_spec("bogus=0.1")
            """,
        )
        report = lint_paths([path], rule_ids=["RPR005"])
        (finding,) = report.findings
        assert "bogus" in finding.message

    def test_good_from_spec_literal_clean(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            """\
            from repro.faults.plan import FaultPlan

            PLAN = FaultPlan.from_spec("spawn=0.1,slow=0.05,seed=7")
            """,
        )
        assert rules_hit(path, "RPR005") == []

    def test_unknown_policy_name_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            """\
            from repro.api import make_policy

            POLICY = make_policy("not-a-policy")
            """,
        )
        report = lint_paths([path], rule_ids=["RPR005"])
        (finding,) = report.findings
        assert "not-a-policy" in finding.message

    def test_registered_policy_name_clean(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            """\
            from repro.api import make_policy

            POLICY = make_policy("pulse")
            """,
        )
        assert rules_hit(path, "RPR005") == []

    def test_policies_constant_tuple_checked(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            'DEFAULT_POLICIES = ("pulse", "typo-policy")\n',
        )
        report = lint_paths([path], rule_ids=["RPR005"])
        (finding,) = report.findings
        assert "typo-policy" in finding.message

    def test_bad_faults_argparse_default_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            """\
            import argparse

            parser = argparse.ArgumentParser()
            parser.add_argument("--faults", default="spwan=0.1")
            """,
        )
        report = lint_paths([path], rule_ids=["RPR005"])
        (finding,) = report.findings
        assert "spwan" in finding.message

    def test_bad_rates_argparse_default_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            """\
            import argparse

            parser = argparse.ArgumentParser()
            parser.add_argument("--rates", default="0,oops,0.1")
            """,
        )
        assert rules_hit(path, "RPR005") == ["RPR005"]

    def test_bad_embedded_docstring_example_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            '''\
            def run(spec):
                """Replay with faults, e.g. ``spawn=oops,slow=0.1``."""
            ''',
        )
        report = lint_paths([path], rule_ids=["RPR005"])
        (finding,) = report.findings
        assert "spawn=oops" in finding.message

    def test_good_embedded_example_clean(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            '''\
            def run(spec):
                """Replay with faults, e.g. ``spawn=0.1,seed=7``."""
            ''',
        )
        assert rules_hit(path, "RPR005") == []

    def test_foreign_mini_language_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "x.py",
            '''\
            def run():
                """Pass ``key=value,mode=fast`` to the other tool."""
            ''',
        )
        assert rules_hit(path, "RPR005") == []


class TestExceptionHygieneRPR006:
    def test_bare_except_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/x.py",
            """\
            def f():
                try:
                    g()
                except:
                    handle()
            """,
        )
        report = lint_paths([path], rule_ids=["RPR006"])
        (finding,) = report.findings
        assert "bare" in finding.message

    def test_swallowed_exception_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "traces/x.py",
            """\
            def f():
                try:
                    g()
                except ValueError:
                    pass
            """,
        )
        report = lint_paths([path], rule_ids=["RPR006"])
        (finding,) = report.findings
        assert "swallowed" in finding.message

    def test_ellipsis_body_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "experiments/x.py",
            """\
            def f():
                try:
                    g()
                except OSError:
                    ...
            """,
        )
        assert rules_hit(path, "RPR006") == ["RPR006"]

    def test_serve_scope_covered(self, tmp_path):
        # The serving layer is in RPR006 scope: a swallowed exception in
        # journal/recovery code is a durability hole, not a style nit.
        path = write(
            tmp_path,
            "serve/journal.py",
            """\
            def recover():
                try:
                    replay()
                except OSError:
                    pass
            """,
        )
        assert rules_hit(path, "RPR006") == ["RPR006"]

    def test_broad_handler_without_raise_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "experiments/x.py",
            """\
            def f():
                try:
                    g()
                except Exception as exc:
                    record(exc)
            """,
        )
        report = lint_paths([path], rule_ids=["RPR006"])
        (finding,) = report.findings
        assert "re-raise" in finding.message

    def test_broad_handler_with_system_exit_clean(self, tmp_path):
        # The durable worker's crash-isolation boundary: record the
        # failure, then die loudly. SystemExit counts as a raise.
        path = write(
            tmp_path,
            "experiments/x.py",
            """\
            def f():
                try:
                    g()
                except Exception as exc:
                    record(exc)
                    raise SystemExit(1)
            """,
        )
        assert rules_hit(path, "RPR006") == []

    def test_broad_handler_with_conditional_raise_clean(self, tmp_path):
        path = write(
            tmp_path,
            "experiments/x.py",
            """\
            def f(on_error):
                try:
                    g()
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    record(exc)
            """,
        )
        assert rules_hit(path, "RPR006") == []

    def test_raise_inside_nested_def_does_not_count(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/x.py",
            """\
            def f():
                try:
                    g()
                except Exception as exc:
                    def later():
                        raise RuntimeError("never fires here")
                    record(later)
            """,
        )
        assert rules_hit(path, "RPR006") == ["RPR006"]

    def test_narrow_recording_handler_clean(self, tmp_path):
        path = write(
            tmp_path,
            "traces/x.py",
            """\
            def f(report):
                try:
                    g()
                except ValueError as exc:
                    report.record_issue(exc)
            """,
        )
        assert rules_hit(path, "RPR006") == []

    def test_waiver_with_reason_accepted(self, tmp_path):
        path = write(
            tmp_path,
            "experiments/x.py",
            """\
            def f():
                try:
                    g()
                # repro: lint-ok[RPR006] failure already recorded upstream
                except OSError:
                    pass
            """,
        )
        assert rules_hit(path, "RPR006") == []

    def test_out_of_scope_module_exempt(self, tmp_path):
        path = write(
            tmp_path,
            "obs/x.py",
            """\
            def f():
                try:
                    g()
                except ValueError:
                    pass
            """,
        )
        assert rules_hit(path, "RPR006") == []


class TestLockDisciplineRPR008:
    GUARDED = textwrap.dedent(
        """\
        import threading

        class Manager:
            def __init__(self):
                self._lock = threading.Lock()
                self._sessions = {}

            def add(self, sid):
                with self._lock:
                    self._sessions[sid] = 1

            def list(self):
                with self._lock:
                    return sorted(self._sessions)
        """
    )

    def broken(self, old: str, new: str) -> str:
        source = self.GUARDED.replace(old, new)
        assert source != self.GUARDED, "fixture edit did not apply"
        return source

    def test_guarded_accesses_clean(self, tmp_path):
        path = write(tmp_path, "serve/app.py", self.GUARDED)
        assert rules_hit(path, "RPR008") == []

    def test_unlocked_read_flagged(self, tmp_path):
        source = self.broken(
            "        with self._lock:\n"
            "            return sorted(self._sessions)",
            "        return sorted(self._sessions)",
        )
        path = write(tmp_path, "serve/app.py", source)
        report = lint_paths([path], rule_ids=["RPR008"])
        (finding,) = report.findings
        assert "unlocked read of shared Manager._sessions" in finding.message

    def test_unlocked_write_flagged(self, tmp_path):
        source = self.broken(
            "        with self._lock:\n"
            "            self._sessions[sid] = 1",
            "        self._sessions[sid] = 1",
        )
        path = write(tmp_path, "serve/app.py", source)
        report = lint_paths([path], rule_ids=["RPR008"])
        (finding,) = report.findings
        assert "unlocked" in finding.message
        assert "with self._lock:" in finding.message

    def test_waiver_with_reason_accepted(self, tmp_path):
        source = self.broken(
            "        with self._lock:\n"
            "            return sorted(self._sessions)",
            "        # repro: lint-ok[RPR008] single-threaded setup phase\n"
            "        return sorted(self._sessions)",
        )
        path = write(tmp_path, "serve/app.py", source)
        assert rules_hit(path, "RPR008") == []

    def test_wrong_lock_does_not_count(self, tmp_path):
        # Holding another object's lock is not holding the owner's.
        path = write(
            tmp_path,
            "serve/app.py",
            """\
            import threading

            class Inner:
                def __init__(self):
                    self.lock = threading.Lock()

            class Manager:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sessions = {}
                    self.inner = Inner()

                def list(self):
                    with self.inner.lock:
                        return sorted(self._sessions)
            """,
        )
        assert rules_hit(path, "RPR008") == ["RPR008"]

    def test_inconsistent_lock_order_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "serve/app.py",
            """\
            import threading

            class Manager:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._b:
                        with self._a:
                            pass
            """,
        )
        report = lint_paths([path], rule_ids=["RPR008"])
        (finding,) = report.findings
        assert "inconsistent lock order" in finding.message
        assert "ABBA" in finding.message

    def test_daemon_write_vs_snapshot_flagged(self, tmp_path):
        # Worker itself has no lock — the daemon-vs-snapshot check still
        # fires on the torn-read shape (Registry exists because the rule
        # only engages when the scope has at least one guarded class).
        path = write(
            tmp_path,
            "serve/ticker.py",
            """\
            import threading

            class Registry:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.items = {}

            class Worker:
                def __init__(self):
                    self.count = 0
                    self.thread = threading.Thread(
                        target=self._run, daemon=True
                    )

                def _run(self):
                    self.count = self.count + 1

                def snapshot(self):
                    return self.count
            """,
        )
        report = lint_paths([path], rule_ids=["RPR008"])
        (finding,) = report.findings
        assert "daemon thread Worker._run" in finding.message
        assert "snapshot()" in finding.message

    def test_out_of_scope_module_exempt(self, tmp_path):
        source = self.GUARDED.replace(
            "        with self._lock:\n"
            "            return sorted(self._sessions)",
            "        return sorted(self._sessions)",
        )
        path = write(tmp_path, "runtime/app.py", source)
        assert rules_hit(path, "RPR008") == []


class TestRealServeFixtureCopyRPR008:
    """The acceptance fixture: the real serving layer's lock usage,
    copied verbatim, then broken."""

    @pytest.fixture
    def app_copy(self, tmp_path):
        target = tmp_path / "serve" / "app.py"
        target.parent.mkdir(parents=True)
        shutil.copy(REPRO_ROOT / "serve" / "app.py", target)
        return target

    def test_pristine_copy_is_clean(self, app_copy):
        assert rules_hit(app_copy, "RPR008") == []

    def test_removed_registry_lock_caught(self, app_copy):
        source = app_copy.read_text()
        broken = source.replace(
            "        with self._registry_lock:\n"
            "            sids = sorted(self._sessions)",
            "        sids = sorted(self._sessions)",
        )
        assert broken != source, "expected list() guard not found"
        app_copy.write_text(broken)
        report = lint_paths([app_copy], rule_ids=["RPR008"])
        assert [f.rule for f in report.findings] == ["RPR008"]
        assert "_sessions" in report.findings[0].message


class TestColumnarHygieneRPR009:
    def test_hot_path_fleet_range_loop_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/fleet.py",
            """\
            def step(n_fn):
                total = 0
                for fid in range(n_fn):
                    total += fid
                return total
            """,
        )
        report = lint_paths([path], rule_ids=["RPR009"])
        (finding,) = report.findings
        assert "hot path step()" in finding.message
        assert "fleet cardinality" in finding.message

    def test_hot_path_tolist_loop_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/columnar.py",
            """\
            import numpy as np

            def serve(cold):
                for i in np.flatnonzero(cold).tolist():
                    handle(i)
            """,
        )
        report = lint_paths([path], rule_ids=["RPR009"])
        (finding,) = report.findings
        assert ".tolist()" in finding.message

    def test_same_loop_outside_hot_path_clean(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/fleet.py",
            """\
            def build_tables(n_fn):
                out = []
                for fid in range(n_fn):
                    out.append(fid)
                return out
            """,
        )
        assert rules_hit(path, "RPR009") == []

    def test_waiver_with_reason_accepted(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/fleet.py",
            """\
            def step(n_fn, pool):
                # repro: lint-ok[RPR009] compat mode only (pool attached)
                for fid in range(n_fn):
                    pool.touch(fid)
            """,
        )
        assert rules_hit(path, "RPR009") == []

    def test_narrow_dtype_arithmetic_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/columnar.py",
            """\
            import numpy as np

            def plan(n):
                levels = np.full(n, 0, dtype=np.int8)
                return levels + 1
            """,
        )
        report = lint_paths([path], rule_ids=["RPR009"])
        (finding,) = report.findings
        assert "int8" in finding.message
        assert "overflow" in finding.message

    def test_widened_arithmetic_clean(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/columnar.py",
            """\
            import numpy as np

            def plan(n):
                levels = np.full(n, 0, dtype=np.int8)
                return levels.astype(np.int64) + 1
            """,
        )
        assert rules_hit(path, "RPR009") == []

    def test_unstable_argsort_flagged_stable_clean(self, tmp_path):
        bad = write(
            tmp_path,
            "a/columnar.py",
            """\
            def rank(scores):
                return scores.argsort()
            """,
        )
        good = write(
            tmp_path,
            "b/columnar.py",
            """\
            def rank(scores):
                return scores.argsort(kind="stable")
            """,
        )
        assert rules_hit(bad, "RPR009") == ["RPR009"]
        assert rules_hit(good, "RPR009") == []

    def test_argpartition_carveout_needs_stable_argsort(self, tmp_path):
        bare = write(
            tmp_path,
            "a/columnar.py",
            """\
            import numpy as np

            def top_k(scores, k):
                return np.argpartition(scores, k)[:k]
            """,
        )
        reordered = write(
            tmp_path,
            "b/columnar.py",
            """\
            import numpy as np

            def top_k(scores, k):
                rough = np.argpartition(scores, k)[:k]
                return rough[scores[rough].argsort(kind="stable")]
            """,
        )
        report = lint_paths([bare], rule_ids=["RPR009"])
        (finding,) = report.findings
        assert "carve-out" in finding.message
        assert rules_hit(reordered, "RPR009") == []

    def test_hot_path_unordered_float_sum_flagged(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/fleet.py",
            """\
            import numpy as np

            def step(n):
                vals = np.zeros(n)
                return vals.sum()
            """,
        )
        report = lint_paths([path], rule_ids=["RPR009"])
        (finding,) = report.findings
        assert "unordered float reduction" in finding.message

    def test_axis_sum_and_int_sum_clean(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/fleet.py",
            """\
            import numpy as np

            def step(n):
                grid = np.zeros((n, 4))
                counts = np.zeros(n, dtype=np.int64)
                return grid.sum(axis=0), counts.sum()
            """,
        )
        assert rules_hit(path, "RPR009") == []

    def test_out_of_scope_basename_exempt(self, tmp_path):
        path = write(
            tmp_path,
            "runtime/planner.py",
            """\
            def step(n_fn):
                for fid in range(n_fn):
                    pass
            """,
        )
        assert rules_hit(path, "RPR009") == []


class TestShippedTreeSelfCheck:
    def test_repro_lints_clean(self):
        report = lint_paths([REPRO_ROOT])
        assert report.findings == [], [str(f) for f in report.findings]
        assert report.exit_code == 0
        # The full pack ran — RPR001 through RPR009 (RPR002 and RPR004
        # are retired).
        assert report.rule_ids == [
            f"RPR{n:03d}" for n in range(1, 10) if n not in (2, 4)
        ]
