"""Decisions of ``scripts/bench_gate.py`` on synthetic run records.

No workload runs here: each case feeds the gate's verdict functions
records shaped like ``bench/run.py --out`` lines (or a budget gate's
round times) and checks the exit code and the verdict word.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "bench_gate", ROOT / "scripts" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture(scope="module")
def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def records(values: list[float], *, correct: bool = True) -> list[dict]:
    """One fleet-10k run per value of its throughput metric."""
    return [
        {
            "workload": "fleet-10k",
            "seed": seed,
            "trace": 0,
            "problems": [] if correct else ["repeat differs"],
            "result": {
                "correct": correct,
                "metrics": {
                    "sim_fn_min_per_s": {"value": v, "unit": "fn-min/s"},
                },
            },
        }
        for seed, v in enumerate(values, start=1)
    ]


BASE = [1000.0, 1010.0, 1020.0, 1030.0, 1040.0]


def verdict_line(lines: list[str]) -> str:
    (line,) = [ln for ln in lines if "sim_fn_min_per_s" in ln]
    return line


class TestRegress:
    def test_separated_drop_is_worse(self, gate, bench_spec):
        head = [0.6 * v for v in BASE]
        code, lines = gate.judge_regress(records(BASE), records(head),
                                         bench_spec)
        assert code == 1
        assert " worse " in verdict_line(lines)

    def test_identical_sets_are_same(self, gate, bench_spec):
        code, lines = gate.judge_regress(records(BASE), records(BASE),
                                         bench_spec)
        assert code == 0
        assert " same " in verdict_line(lines)

    def test_overlapping_noise_is_unresolved(self, gate, bench_spec):
        # Quartile spread ~60% of the median, against a 25% bound.
        noisy = [500.0, 800.0, 1000.0, 1200.0, 1500.0]
        head = [450.0, 700.0, 950.0, 1100.0, 1600.0]
        code, lines = gate.judge_regress(records(noisy), records(head),
                                         bench_spec)
        assert code == 0
        line = verdict_line(lines)
        assert " unresolved " in line
        assert "spread base" in line and "head" in line

    def test_failed_run_fails_the_gate_and_names_its_side(self, gate,
                                                          bench_spec):
        head = records(BASE[:4]) + records(BASE[4:], correct=False)
        code, lines = gate.judge_regress(records(BASE), head, bench_spec)
        assert code == 1
        assert any(ln.startswith("FAILED head:") for ln in lines)


class TestBudget:
    def test_separated_overhead_over_budget_fails(self, gate):
        code, lines = gate.judge_budget("obs", [1.0] * 7, [1.3] * 7)
        assert code == 1
        assert " worse" in lines[0]

    def test_overhead_within_budget_passes(self, gate):
        off = [1.0, 1.01, 1.02, 1.0, 0.99, 1.01, 1.0]
        on = [1.03, 1.04, 1.05, 1.03, 1.02, 1.04, 1.03]
        code, lines = gate.judge_budget("journal", off, on)
        assert code == 0
        assert " same" in lines[0]

    def test_failed_round_fails(self, gate):
        code, _ = gate.judge_budget("journal", [1.0] * 7, [1.0] * 6,
                                    failed=1)
        assert code == 1
