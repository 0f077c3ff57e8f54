"""Fleet observability: bit-identity, run totals, sampled traces.

The fleet engine's telemetry contract has three legs, all tested here:

- **Obs-on is metric-preserving.** ``FleetObsSession`` only *reads*
  columnar state — no RNG draws, no float-accumulation reorder — so a
  fleet run with ``observe=True`` must be bit-identical to ``observe=None``
  in every deterministic ``RunResult`` field, including under
  capacity-valve pressure with sampled decision traces on.
- **Metrics report the run.** The shared counters carry the run's
  invocation/cold totals, the columnar series cover the horizon, and
  the span tree names the serve/observe/plan kernels and the reducer.
- **Sampled decision traces answer why-queries.** A deterministic
  sample of fids keeps full ``record_*`` streams (plans, colds,
  ``Uv = Ai + Pr + Ip`` downgrade candidate tables) that flow through
  the unchanged JSONL export into ``TraceIndex`` / ``repro inspect``.

Also home to the streaming sinks (``StreamingTraceWriter``, Prometheus
exposition) and the fleet section of the HTML report.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pulse import PulsePolicy
from repro.experiments.assignments import sample_assignment
from repro.models.zoo import default_zoo
from repro.obs.export import (
    StreamingTraceWriter,
    render_prometheus,
    trace_records,
    write_prometheus,
    write_trace_jsonl,
)
from repro.obs.fleet import CANDIDATE_CAP, FleetObsSession
from repro.obs.inspect import TraceIndex
from repro.obs.report import render_run_report
from repro.obs.session import ObservabilityConfig
from repro.runtime.simulator import Simulation, SimulationConfig
from tests.conftest import assert_records_equal
from tests.test_engine_fleet import assert_identical, capped_table

#: Model-family assignments the obs-on ≡ obs-off legs run under.
ASSIGNMENT_SEEDS = (1, 2, 7)


def seeded_assignment(trace, seed):
    return sample_assignment(trace.n_functions, default_zoo(), seed=seed)


def fleet_run(trace, assignment, cfg):
    return Simulation(trace, assignment, PulsePolicy(), cfg).run(
        engine="fleet"
    )


# ---------------------------------------------------------------------------
# Leg 1: obs-on == obs-off, bit for bit
# ---------------------------------------------------------------------------
class TestObsBitIdentity:
    @pytest.mark.parametrize("seed", ASSIGNMENT_SEEDS)
    def test_lean_config(self, small_trace, seed):
        assignment = seeded_assignment(small_trace, seed)
        cfg = SimulationConfig(record_series=False)
        off = fleet_run(small_trace, assignment, replace(cfg, observe=None))
        on = fleet_run(small_trace, assignment, replace(cfg, observe=True))
        assert_identical(off, on)

    @pytest.mark.parametrize("seed", ASSIGNMENT_SEEDS)
    def test_events_and_valve(self, small_trace, seed):
        assignment = seeded_assignment(small_trace, seed)
        cfg = SimulationConfig(memory_capacity_mb=4000.0, capacity_seed=11)
        off = fleet_run(small_trace, assignment, replace(cfg, observe=None))
        on = fleet_run(
            small_trace, assignment,
            replace(cfg, observe=ObservabilityConfig(trace_sample=12)),
        )
        assert on.obs.records  # the sampled fids' decisions were traced
        assert_identical(off, on)

    def test_summary_identical_modulo_wall_clock(self, small_trace, assignment):
        cfg = SimulationConfig(record_series=False)
        off = fleet_run(small_trace, assignment, replace(cfg, observe=None))
        on = fleet_run(small_trace, assignment, replace(cfg, observe=True))
        s_off, s_on = off.summary(), on.summary()
        s_off.pop("wall_clock_s"), s_on.pop("wall_clock_s")
        assert s_off == s_on


# ---------------------------------------------------------------------------
# Leg 2: metrics report the run
# ---------------------------------------------------------------------------
class TestFleetMetrics:
    @pytest.fixture(scope="class")
    def observed(self, small_trace):
        assignment = seeded_assignment(small_trace, 1)
        cfg = SimulationConfig(
            observe=True, memory_capacity_mb=4000.0, capacity_seed=11
        )
        return fleet_run(small_trace, assignment, cfg)

    def test_sessions_are_fleet(self, observed):
        assert isinstance(observed.obs, FleetObsSession)

    def test_totals_match_run_result(self, observed, small_trace):
        obs = observed.obs
        metrics = obs.metrics
        assert metrics.get("invocations_total").value() == observed.n_invocations
        assert metrics.get("cold_starts_total").value() == observed.n_cold
        assert metrics.get("warm_starts_total").value() == observed.n_warm
        assert obs.mem_series.size == small_trace.horizon
        assert obs.valve_series.sum() == observed.n_forced_downgrades

    def test_span_tree_names_phases_and_reducer(self, observed):
        tree = observed.obs.spans.tree()
        for phase in ("serve", "observe", "plan", "reduce"):
            assert phase in tree


# ---------------------------------------------------------------------------
# Leg 3: sampled decision traces + inspect why-queries
# ---------------------------------------------------------------------------
class TestSampledTraces:
    @pytest.fixture(scope="class")
    def sampled_result(self, small_trace):
        assignment = seeded_assignment(small_trace, 1)
        # Sample every fid so any downgrade is guaranteed to be sampled.
        cfg = SimulationConfig(
            observe=ObservabilityConfig(trace_sample=small_trace.n_functions)
        )
        return Simulation(small_trace, assignment, PulsePolicy(), cfg).run(
            engine="fleet"
        )

    @pytest.fixture(scope="class")
    def index(self, sampled_result, tmp_path_factory):
        path = tmp_path_factory.mktemp("fleet-trace") / "run.jsonl"
        write_trace_jsonl(sampled_result, path)
        return TraceIndex.from_jsonl(path)

    def test_sample_is_deterministic(self, small_trace):
        a = FleetObsSession(
            ObservabilityConfig(trace_sample=4),
            n_functions=100, horizon=10,
        )
        b = FleetObsSession(
            ObservabilityConfig(trace_sample=4),
            n_functions=100, horizon=10,
        )
        np.testing.assert_array_equal(a.sample_fids, b.sample_fids)
        assert a.sample_fids.size == 4
        assert a.sample_mask.sum() == 4

    def test_partial_sample_records_only_sampled_fids(self, small_trace):
        assignment = seeded_assignment(small_trace, 1)
        cfg = SimulationConfig(
            observe=ObservabilityConfig(trace_sample=4)
        )
        result = Simulation(
            small_trace, assignment, PulsePolicy(), cfg
        ).run(engine="fleet")
        obs = result.obs
        sampled = set(obs.sample_fids.tolist())
        fids = {
            r["fid"] for r in obs.records
            if r["kind"] in ("plan", "cold") and "fid" in r
        }
        assert fids, "sampled run recorded no decisions"
        assert fids <= sampled

    def test_inspect_explains_why_downgraded(self, index):
        scored = next(
            (d for d in index.downgrades if d.get("candidates")), None
        )
        assert scored is not None, "fleet run produced no scored downgrade"
        text = index.explain_downgrades(scored["fid"], scored["t"])
        assert "via Algorithm 2" in text
        assert "Uv" in text and "Ai" in text

    def test_inspect_explains_cold(self, index):
        fid, colds = next(iter(index._colds.items()))
        text = index.explain_cold(fid, colds[0]["t"])
        assert "cold" in text.lower()

    def test_candidate_tables_match_reference(self, small_trace, index):
        """Sampled fleet downgrade tables, read back from JSONL, carry
        the same rows and scores the reference loop records (modulo the
        CANDIDATE_CAP truncation, which cannot trigger at 12 functions)."""
        assignment = seeded_assignment(small_trace, 1)
        cfg = SimulationConfig(observe=True)
        ref = Simulation(
            small_trace, assignment, PulsePolicy(), cfg
        ).run(engine="reference")
        ref_tables = {
            (d["t"], d["fid"]): d["candidates"]
            for d in ref.obs.records
            if d["kind"] == "downgrade" and d.get("candidates")
        }
        fleet_tables = {
            (d["t"], d["fid"]): d["candidates"]
            for d in index.downgrades
            if d.get("candidates")
        }
        assert fleet_tables, "no fleet candidate tables recorded"
        for key, table in fleet_tables.items():
            assert key in ref_tables
            assert len(table) <= CANDIDATE_CAP + 1
            assert_records_equal(table, capped_table(ref_tables[key]),
                                 f"candidates at {key}")


# ---------------------------------------------------------------------------
# Streaming sinks
# ---------------------------------------------------------------------------
class TestStreamingSinks:
    @pytest.fixture(scope="class")
    def observed(self, small_trace):
        assignment = seeded_assignment(small_trace, 1)
        cfg = SimulationConfig(
            observe=ObservabilityConfig(trace_sample=8)
        )
        return Simulation(small_trace, assignment, PulsePolicy(), cfg).run(
            engine="fleet"
        )

    def test_streaming_writer_matches_batch_export(self, observed, tmp_path):
        batch = tmp_path / "batch.jsonl"
        write_trace_jsonl(observed, batch)
        streamed = tmp_path / "streamed.jsonl"
        with StreamingTraceWriter(streamed, flush_every=7) as w:
            for rec in observed.obs.records:
                w.write(rec)
            w.finalize(observed)
        assert streamed.read_bytes() == batch.read_bytes()
        assert not (tmp_path / "streamed.jsonl.part").exists()

    def test_streaming_writer_crash_keeps_sidecar(self, observed, tmp_path):
        target = tmp_path / "crash.jsonl"
        w = StreamingTraceWriter(target, flush_every=1)
        w.write({"kind": "plan", "t": 0})
        w.close()  # crash path: no finalize
        assert not target.exists()
        assert (tmp_path / "crash.jsonl.part").exists()

    def test_streaming_writer_rejects_bad_flush(self, tmp_path):
        with pytest.raises(ValueError):
            StreamingTraceWriter(tmp_path / "x.jsonl", flush_every=0)

    def test_prometheus_exposition(self, observed):
        text = render_prometheus(observed.obs)
        assert text.endswith("\n")
        assert "# TYPE invocations_total counter" in text
        assert "\ninvocations_total " in text
        assert "# TYPE fleet_trace_sample gauge" in text
        # Histograms render as summary-style _count/_sum/_min/_max.
        assert "_count" in text and "_sum" in text

    def test_write_prometheus(self, observed, tmp_path):
        path = tmp_path / "metrics.prom"
        n = write_prometheus(observed.obs, path)
        assert n == len(path.read_text().splitlines())

    def test_html_report_has_fleet_section(self, observed):
        html = render_run_report(observed)
        assert "Fleet telemetry" in html
        assert "serve ms" in html and "cold starts" in html
        assert "sampled decision traces" in html

    def test_trace_records_roundtrip_fleet_session(self, observed):
        kinds = {r.get("kind") for r in trace_records(observed)}
        assert "metrics" in kinds and "spans" in kinds
