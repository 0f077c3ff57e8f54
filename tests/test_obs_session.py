"""Tests for repro.obs.session: the live session, NULL_OBS, and the
engine's disabled-path guarantees (nothing allocated when observe is off)."""

import math
import pickle

import numpy as np
import pytest

from repro.baselines.openwhisk import OpenWhiskPolicy
from repro.core.pulse import PulsePolicy
from repro.experiments.assignments import sample_assignment
from repro.obs.session import NULL_OBS, ObservabilityConfig, ObsSession
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import FunctionSpec, Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from tests.conftest import assert_records_equal


class FakeVariant:
    def __init__(self, level, name):
        self.level = level
        self.name = name


class TestObservabilityConfig:
    def test_defaults_all_on(self):
        cfg = ObservabilityConfig()
        assert cfg.metrics and cfg.spans and cfg.decisions

    def test_all_off_rejected(self):
        with pytest.raises(ValueError, match="enables nothing"):
            ObservabilityConfig(metrics=False, spans=False, decisions=False)

    def test_partial_layers(self):
        s = ObsSession(ObservabilityConfig(spans=False, decisions=False))
        assert s.metrics_enabled and not s.spans_enabled
        assert not s.decisions_enabled


class TestObsSession:
    def test_plan_record_claims_staged_probs(self):
        s = ObsSession()
        plan = [FakeVariant(2, "big"), None, FakeVariant(0, "small")]
        s.stage_probs(3, 10, np.array([0.9, 0.1, 0.4]))
        s.record_plan(10, 3, plan)
        (rec,) = s.records
        assert rec["kind"] == "plan" and rec["t"] == 10 and rec["fid"] == 3
        assert rec["levels"] == [2, None, 0]
        assert rec["variants"] == ["big", None, "small"]
        assert rec["probs"] == pytest.approx([0.9, 0.1, 0.4])
        assert s._staged_probs is None  # consumed

    def test_stale_staged_probs_not_claimed(self):
        s = ObsSession()
        s.stage_probs(3, 10, [0.5])
        s.record_plan(11, 3, [])  # different minute: snapshot must not attach
        assert "probs" not in s.records[0]

    def test_record_cold_and_downgrade(self):
        s = ObsSession()
        s.record_cold(5, 1, "GPT-Large", 2, None)
        s.record_downgrade(6, 1, "GPT-Large", "GPT-Medium",
                           candidates=[{"fid": 1}], forced=False)
        s.record_downgrade(7, 1, "GPT-Medium", None, forced=True)
        cold, dg, drop = s.records
        assert cold["last_arrival"] is None and cold["count"] == 2
        assert dg["candidates"] == [{"fid": 1}] and not dg["forced"]
        assert drop["to"] is None and drop["forced"]
        assert "candidates" not in drop

    def test_record_peak_maps_inf_to_none(self):
        s = ObsSession()
        s.record_peak(0, 100.0, math.inf, math.inf)
        rec = s.records[0]
        assert rec["demand_mb"] == 100.0
        assert rec["prior_mb"] is None and rec["target_mb"] is None

    def test_merge_accumulates_and_drops_records(self):
        a, b = ObsSession(), ObsSession()
        a.metrics.counter("hits").inc(1.0)
        b.metrics.counter("hits").inc(2.0)
        b.spans.add("estimate", 0.5)
        b.record_cold(0, 0, "v", 1, None)
        a.merge(b)
        assert a.metrics.counter("hits").value() == 3.0
        assert a.spans.seconds("estimate") == pytest.approx(0.5)
        assert a.n_runs == 2
        assert a.records == []  # per-run artifacts are not concatenated

    def test_picklable(self):
        s = ObsSession()
        s.metrics.counter("hits").inc(3.0, function=1)
        s.spans.add("estimate", 0.1)
        s.record_cold(0, 0, "v", 1, None)
        clone = pickle.loads(pickle.dumps(s))
        assert clone.enabled and clone.metrics_enabled
        assert clone.metrics.as_flat_dict() == s.metrics.as_flat_dict()
        assert_records_equal(clone.records, s.records)
        assert clone.n_runs == 1


class TestNullSession:
    def test_all_flags_false(self):
        assert not NULL_OBS.enabled
        assert not NULL_OBS.metrics_enabled
        assert not NULL_OBS.spans_enabled
        assert not NULL_OBS.decisions_enabled

    def test_record_methods_are_noops(self):
        NULL_OBS.stage_probs(0, 0, [0.5])
        NULL_OBS.record_plan(0, 0, [])
        NULL_OBS.record_cold(0, 0, "v", 1, None)
        NULL_OBS.record_peak(0, 1.0, 2.0, 3.0)
        NULL_OBS.record_downgrade(0, 0, "a", "b")
        assert NULL_OBS.records == ()

    def test_nothing_allocated(self):
        # The shared singleton carries no registry/timer and cannot be
        # accidentally accumulated into.
        assert NULL_OBS.metrics is None
        assert NULL_OBS.spans is None
        with pytest.raises(AttributeError):
            NULL_OBS.records.append({"kind": "oops"})  # type: ignore[attr-defined]


def one_function_trace(counts):
    counts = np.asarray([counts], dtype=np.int64)
    return Trace(counts=counts, functions=(FunctionSpec(0, "f0"),))


class TestEngineDisabledPath:
    """SimulationConfig.observe=None (default) must allocate nothing."""

    @pytest.mark.parametrize("engine", ["reference"])
    def test_unobserved_run_has_no_session(self, gpt, engine):
        cfg = SimulationConfig()
        r = Simulation(one_function_trace([1, 0, 1]), {0: gpt},
                       OpenWhiskPolicy(), cfg).run(engine=engine)
        assert r.obs is None
        assert r.flat_metrics() == {}

    def test_unobserved_policy_keeps_null_obs(self, small_trace, assignment):
        policy = PulsePolicy()
        Simulation(small_trace, assignment, policy, SimulationConfig()).run()
        assert policy.obs is NULL_OBS
        assert policy._fopt.obs is NULL_OBS
        assert policy._gopt.obs is NULL_OBS
        assert NULL_OBS.records == ()  # nothing leaked onto the singleton

    @pytest.mark.parametrize("engine", ["reference", "fleet"])
    def test_reused_policy_detaches_previous_run(self, engine):
        # A policy object reused for an unobserved run must not keep
        # writing into the first run's session.
        trace = generate_trace(
            SyntheticTraceConfig(n_functions=6, horizon_minutes=300, seed=4)
        )
        assignment = sample_assignment(trace.n_functions, seed=4)
        policy = PulsePolicy()
        first = Simulation(
            trace, assignment, policy, SimulationConfig(observe=True)
        ).run(engine=engine)
        records = len(first.obs.records)
        assert records > 0
        Simulation(trace, assignment, policy, SimulationConfig()).run(
            engine=engine
        )
        assert len(first.obs.records) == records
        assert policy.obs is NULL_OBS

    def test_observe_bool_normalization(self):
        assert SimulationConfig(observe=True).observe == ObservabilityConfig()
        assert SimulationConfig(observe=False).observe is None
        assert SimulationConfig().observe is None
        cfg = ObservabilityConfig(decisions=False)
        assert SimulationConfig(observe=cfg).observe is cfg
        with pytest.raises(TypeError):
            SimulationConfig(observe="yes")  # type: ignore[arg-type]


class TestEngineObservedPath:
    @pytest.mark.parametrize("engine", ["reference"])
    def test_observed_run_populates_session(self, small_trace, assignment, engine):
        cfg = SimulationConfig(observe=True)
        r = Simulation(
            small_trace, assignment, PulsePolicy(), cfg
        ).run(engine=engine)
        s = r.obs
        assert s is not None and s.enabled
        kinds = {rec["kind"] for rec in s.records}
        assert {"plan", "cold"} <= kinds
        flat = r.flat_metrics()
        assert flat["invocations_total{function=0}"] > 0
        assert flat["cold_starts_total{function=0}"] >= 0
        assert sum(
            v for k, v in flat.items() if k.startswith("invocations_total")
        ) == r.n_invocations
        assert "engine-total" in s.spans.phases
        for phase in ("estimate", "band-mapping", "peak-detect",
                      "downgrade-select"):
            assert s.spans.count(phase) > 0, phase

    def test_warm_cold_counters_match_headline(self, small_trace, assignment):
        cfg = SimulationConfig(observe=True)
        r = Simulation(small_trace, assignment, OpenWhiskPolicy(), cfg).run()
        flat = r.flat_metrics()
        cold = sum(v for k, v in flat.items() if k.startswith("cold_starts_total"))
        assert cold == r.n_cold
        assert flat["warm_starts_total"] == r.n_warm

    def test_metrics_only_layer(self, small_trace, assignment):
        cfg = SimulationConfig(
            observe=ObservabilityConfig(spans=False, decisions=False)
        )
        r = Simulation(small_trace, assignment, PulsePolicy(), cfg).run()
        assert r.obs.records == []
        assert len(r.obs.spans) == 0
        assert r.flat_metrics()
