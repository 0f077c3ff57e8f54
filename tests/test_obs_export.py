"""Tests for repro.obs.export, repro.obs.report and sweep telemetry merging."""

import json

import pytest

from repro.core.pulse import PulsePolicy
from repro.experiments.runner import (
    ExperimentConfig,
    default_trace,
    merged_telemetry,
    run_policies,
)
from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    merge_sessions,
    merged_flat_metrics,
    read_trace_jsonl,
    trace_records,
    write_trace_jsonl,
)
from repro.obs.report import render_run_report, save_run_report
from repro.obs.session import ObservabilityConfig, ObsSession
from repro.runtime.simulator import Simulation, SimulationConfig
from tests.conftest import assert_records_equal


@pytest.fixture(scope="module")
def observed_result(small_trace, assignment_module):
    cfg = SimulationConfig(observe=True)
    return Simulation(small_trace, assignment_module, PulsePolicy(), cfg).run()


@pytest.fixture(scope="module")
def assignment_module(small_trace):
    from repro.experiments.assignments import sample_assignment
    from repro.models.zoo import default_zoo

    return sample_assignment(small_trace.n_functions, default_zoo(), seed=1)


class TestTraceJsonl:
    def test_header_first_and_self_describing(self, observed_result):
        records = list(trace_records(observed_result))
        header = records[0]
        assert header["kind"] == "header"
        assert header["schema_version"] == TRACE_SCHEMA_VERSION
        assert header["policy"] == observed_result.policy_name
        assert header["n_cold"] == observed_result.n_cold
        assert header["keepalive_cost_usd"] == observed_result.keepalive_cost_usd

    def test_tail_records(self, observed_result):
        records = list(trace_records(observed_result))
        assert records[-2]["kind"] == "metrics"
        assert records[-1]["kind"] == "spans"
        assert records[-2]["values"] == observed_result.flat_metrics()
        assert "estimate" in records[-1]["phases"]

    def test_roundtrip(self, observed_result, tmp_path):
        path = tmp_path / "run.jsonl"
        n = write_trace_jsonl(observed_result, path)
        loaded = read_trace_jsonl(path)
        assert len(loaded) == n
        assert_records_equal(loaded, trace_records(observed_result))

    def test_every_line_is_json(self, observed_result, tmp_path):
        path = tmp_path / "run.jsonl"
        write_trace_jsonl(observed_result, path)
        for line in path.read_text().splitlines():
            json.loads(line)  # raises on any malformed line

    def test_blank_lines_skipped(self, observed_result, tmp_path):
        path = tmp_path / "run.jsonl"
        n = write_trace_jsonl(observed_result, path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert len(read_trace_jsonl(path)) == n

    def test_unobserved_run_rejected(self, small_trace, assignment_module):
        r = Simulation(
            small_trace, assignment_module, PulsePolicy(), SimulationConfig()
        ).run()
        with pytest.raises(ValueError, match="observe=True"):
            list(trace_records(r))


class TestMergeSessions:
    def test_merge_counts_runs(self):
        sessions = []
        for i in range(3):
            s = ObsSession()
            s.metrics.counter("hits").inc(float(i + 1))
            s.record_cold(0, 0, "v", 1, None)
            sessions.append(s)
        merged = merge_sessions(sessions)
        assert merged.n_runs == 3
        assert merged.metrics.counter("hits").value() == 6.0
        assert merged.records == []

    def test_disabled_inputs_skipped(self):
        assert merge_sessions([None, None]) is None
        assert merge_sessions([]) is None

    def test_merged_flat_metrics(self):
        s = ObsSession()
        s.metrics.counter("hits").inc(2.0)
        out = merged_flat_metrics({"pulse": s, "openwhisk": None})
        assert out == {"pulse": {"hits": 2.0}}


class TestMergedTelemetry:
    def test_sweep_merge_across_processes(self):
        cfg = ExperimentConfig(
            n_runs=4, horizon_minutes=240, seed=5, n_jobs=2,
            sim=SimulationConfig(observe=True),
        )
        trace = default_trace(cfg)
        results = run_policies(trace, {"pulse": PulsePolicy}, cfg)
        tel = merged_telemetry(results)
        merged = tel["pulse"]
        assert merged.n_runs == 4
        flat = merged.metrics.as_flat_dict()
        total_inv = sum(
            v for k, v in flat.items() if k.startswith("invocations_total")
        )
        assert total_inv == sum(r.n_invocations for r in results["pulse"])
        assert merged.spans.count("engine-total") == 4

    def test_unobserved_sweep_is_empty(self):
        cfg = ExperimentConfig(n_runs=2, horizon_minutes=120, seed=5)
        trace = default_trace(cfg)
        results = run_policies(trace, {"pulse": PulsePolicy}, cfg)
        assert merged_telemetry(results) == {}


class TestRunReport:
    def test_report_contains_summary_and_phases(self, observed_result):
        html = render_run_report(observed_result)
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert observed_result.policy_name in html
        assert "keepalive_cost_usd" in html
        assert "downgrade-select" in html  # span phase table
        assert "<svg" in html  # memory chart embedded

    def test_save(self, observed_result, tmp_path):
        out = save_run_report(observed_result, tmp_path / "run.html")
        assert out.exists() and out.stat().st_size > 1000

    def test_unobserved_run_renders_with_note(
        self, small_trace, assignment_module
    ):
        r = Simulation(
            small_trace, assignment_module, PulsePolicy(), SimulationConfig()
        ).run()
        html = render_run_report(r)
        assert "observe" in html  # points the reader at the flag

    def test_decisions_off_still_renders(self, small_trace, assignment_module):
        cfg = SimulationConfig(
            observe=ObservabilityConfig(decisions=False, spans=False)
        )
        r = Simulation(small_trace, assignment_module, PulsePolicy(), cfg).run()
        html = render_run_report(r, title="metrics only")
        assert "metrics only" in html
