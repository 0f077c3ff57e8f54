"""Tests for the benchmark's own helpers (no simulation runs).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import diff  # noqa: E402
from common import (  # noqa: E402
    PercentileRefused,
    Tally,
    percentile,
    summary_diff,
    write_jsonl,
)
from tracing import Span, Tracer  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "layer_ms", "unit": "ms", "better": "lower"}],
}


class TestPercentileRule:
    def test_refuses_with_fewer_than_ten_samples_beyond(self):
        with pytest.raises(PercentileRefused):
            percentile([float(i) for i in range(999)], 99)

    def test_resolves_with_exactly_ten_beyond(self):
        samples = [float(i) for i in range(1000)]
        assert percentile(samples, 99) == 989.0
        assert sum(s > 989.0 for s in samples) == 10

    def test_median_needs_twenty_samples(self):
        with pytest.raises(PercentileRefused):
            percentile([1.0] * 19, 50)
        assert percentile([float(i) for i in range(20)], 50) == 9.0


class TestFailureCounting:
    def test_refusals_and_errors_count_as_failures(self):
        tally = Tally()
        for status in (200, 201, 429, 503, 500, 0):
            tally.http(status, "advance")
        assert (tally.attempted, tally.failed) == (6, 4)
        assert tally.status_counts() == {
            "serve.status_429": 1, "serve.status_503": 1,
            "serve.status_5xx": 2,
        }

    def test_mismatch_counts_as_failure(self):
        tally = Tally()
        a = {"policy": "PULSE", "keepalive_cost_usd": 1.0,
             "wall_clock_s": 3.0}
        b = dict(a, wall_clock_s=9.0)
        assert tally.check("same run", summary_diff(a, b))
        assert not tally.check(
            "changed run", summary_diff(a, dict(b, keepalive_cost_usd=2.0))
        )
        assert (tally.attempted, tally.failed) == (2, 1)
        assert tally.failed_pct == 50.0
        assert "keepalive_cost_usd" in tally.problems[0]


class TestTracer:
    def test_nested_spans_split_the_run(self):
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer.span("root", rid=1):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("a"):
                pass
        assert tracer.problems(time.perf_counter() - t0) == []
        assert set(tracer.self_times()) == {"unattributed", "a", "b"}
        assert all(s.rid == 1 for s in tracer.spans)

    def _spans(self, *spans):
        tracer = Tracer()
        tracer.spans = [Span(i, parent, name, None, thread, start, end)
                        for i, (parent, name, thread, start, end)
                        in enumerate(spans, 1)]
        return tracer

    def test_child_outside_its_parent_is_a_problem(self):
        tracer = self._spans((None, "root", 1, 0.0, 1.0),
                             (1, "late", 1, 0.5, 1.5))
        assert "late #2 lies outside its parent root #1" in tracer.problems(2)

    def test_child_on_another_thread_is_a_problem(self):
        tracer = self._spans((None, "root", 1, 0.0, 1.0),
                             (1, "moved", 2, 0.2, 0.4))
        assert tracer.problems(2) != []

    def test_overlapping_siblings_are_a_problem(self):
        tracer = self._spans((None, "root", 1, 0.0, 1.0),
                             (1, "a", 1, 0.1, 0.6), (1, "b", 1, 0.5, 0.9))
        assert "a #2 overlaps b #3" in tracer.problems(2)
        assert tracer.self_time(tracer.spans[0]) < 0.2

    def test_roots_longer_than_the_run_are_a_problem(self):
        tracer = self._spans((None, "root", 1, 0.0, 1.0),
                             (None, "root", 1, 1.0, 2.0))
        assert tracer.problems(2.5) == []
        assert tracer.problems(1.5) != []

    def test_wrap_shims_and_restores(self):
        class Layer:
            def work(self, x):
                return x + 1

        tracer = Tracer()
        original = Layer.work
        tracer.wrap(Layer, "work", "layer.work")
        assert Layer().work(1) == 2
        tracer.unwrap_all()
        assert Layer.work is original
        assert [s.name for s in tracer.spans] == ["layer.work"]


def _record(workload, seed, trace, metrics):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "result": {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()},
        },
    }


def _results(path: Path, rate_scale: float) -> Path:
    rows = []
    for seed in range(1, 11):
        wobble = 1.0 + 0.001 * (seed % 3)
        rows.append(_record("w1", seed, 0, {
            "setup_s": 1.0 * wobble, "rate": 100.0 * rate_scale * wobble,
        }))
        rows.append(_record("w2", seed, 0, {
            "setup_s": 2.0 * wobble, "rate": 50.0 * wobble,
        }))
    rows.append(_record("w1", 1, 1, {"layer_ms": 4.0 * rate_scale}))
    write_jsonl(path, rows)
    return path


class TestDiff:
    def test_result_file_round_trips(self, tmp_path, capsys):
        spec = tmp_path / "BENCHMARK.json"
        spec.write_text(json.dumps(SPEC))
        a = _results(tmp_path / "a.jsonl", 1.0)
        assert diff.main([str(a), str(a), "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if " n=" in line]
        assert len(rows) == 4  # two metrics x two workloads
        assert all(line.endswith("same") for line in rows)
        assert "layer_ms" in out

    def test_verdicts(self, tmp_path, capsys):
        spec = tmp_path / "BENCHMARK.json"
        spec.write_text(json.dumps(SPEC))
        a = _results(tmp_path / "a.jsonl", 1.0)
        slower = _results(tmp_path / "slower.jsonl", 0.5)
        faster = _results(tmp_path / "faster.jsonl", 1.5)
        diff.main([str(a), str(slower), "--spec", str(spec)])
        assert "worse" in capsys.readouterr().out
        diff.main([str(a), str(faster), "--spec", str(spec)])
        assert "better" in capsys.readouterr().out

    def test_unresolved_when_spread_exceeds_bound(self):
        a = [100.0, 60.0, 140.0, 100.0, 80.0, 120.0]
        b = [95.0, 55.0, 135.0, 97.0, 75.0, 118.0]
        assert diff.verdict(a, b, "higher", 0.1)[1] == "unresolved"
