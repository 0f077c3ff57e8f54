"""ResilientPolicy: crash isolation, degradation semantics, determinism.

The fleet engine does not compile wrapped policies, so the parity checks
compare the reference batch run with the same run stepped one minute at
a time through a session.
"""

from __future__ import annotations

import pytest
from tests.test_engine_fleet import assert_identical

from repro.baselines.ideal import IdealOraclePolicy
from repro.baselines.openwhisk import OpenWhiskPolicy
from repro.baselines.static import IntelligentOraclePolicy
from repro.core.pulse import PulsePolicy
from repro.faults.isolation import FALLBACK_WINDOW_MINUTES, ResilientPolicy
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.serve.session import open_session


def batch_and_stepped(trace, assignment, factory, cfg):
    """The same reference run as one batch and as a session advanced
    one minute at a time (for policies the fleet engine cannot run)."""
    batch = Simulation(trace, assignment, factory(), cfg).run(engine="reference")
    session = open_session(
        trace, policy=factory(), assignment=assignment, config=cfg,
        engine="reference",
    )
    while session.next_minute < trace.horizon:
        session.advance()
    return batch, session.result()


class CrashOnPlan(PulsePolicy):
    """PULSE that throws in ``plan`` for one function after a minute."""

    def __init__(self, crash_fid=2, after_minute=100):
        super().__init__()
        self.crash_fid = crash_fid
        self.after_minute = after_minute

    def plan(self, function_id, minute):
        if function_id == self.crash_fid and minute >= self.after_minute:
            raise RuntimeError("boom")
        return super().plan(function_id, minute)


class CrashOnColdVariant(OpenWhiskPolicy):
    def cold_variant(self, function_id, minute):
        if minute >= 60:
            raise ValueError("no container")
        return super().cold_variant(function_id, minute)


class CrashOnBind(OpenWhiskPolicy):
    def on_bind(self):
        raise RuntimeError("bad config")


class TestCrashIsolation:
    def test_plan_crash_degrades_one_function(self, small_trace, assignment):
        policy = ResilientPolicy(CrashOnPlan(crash_fid=2, after_minute=100))
        r = Simulation(
            small_trace, assignment, policy, SimulationConfig()
        ).run(engine="reference")
        assert r.n_policy_faults == 1
        assert list(policy.degraded_since) == [2]
        assert policy.degraded_since[2] >= 100
        assert r.n_degraded_minutes == small_trace.horizon - policy.degraded_since[2]
        # The run still serves every invocation.
        assert r.n_invocations == small_trace.total_invocations()

    def test_both_engines_identical_under_crash(self, small_trace, assignment):
        factory = lambda: ResilientPolicy(CrashOnPlan())  # noqa: E731
        ref, stepped = batch_and_stepped(
            small_trace, assignment, factory, SimulationConfig()
        )
        assert ref.n_policy_faults == 1
        assert ref.n_degraded_minutes > 0
        assert_identical(ref, stepped)

    def test_cold_variant_crash(self, small_trace, assignment):
        factory = lambda: ResilientPolicy(CrashOnColdVariant())  # noqa: E731
        ref, stepped = batch_and_stepped(
            small_trace, assignment, factory, SimulationConfig()
        )
        assert ref.n_policy_faults > 0
        assert_identical(ref, stepped)

    def test_bind_crash_degrades_everything(self, small_trace, assignment):
        policy = ResilientPolicy(CrashOnBind())
        r = Simulation(
            small_trace, assignment, policy, SimulationConfig()
        ).run(engine="reference")
        assert r.n_policy_faults == 1
        assert set(policy.degraded_since) == set(range(small_trace.n_functions))
        assert all(m == 0 for m in policy.degraded_since.values())
        assert r.n_degraded_minutes == small_trace.horizon * small_trace.n_functions
        assert r.n_invocations == small_trace.total_invocations()

    def test_healthy_policy_unchanged(self, small_trace, assignment):
        plain = Simulation(
            small_trace, assignment, OpenWhiskPolicy(), SimulationConfig()
        ).run(engine="reference")
        wrapped = Simulation(
            small_trace, assignment, ResilientPolicy(OpenWhiskPolicy()),
            SimulationConfig(),
        ).run(engine="reference")
        assert wrapped.n_policy_faults == 0
        assert wrapped.n_degraded_minutes == 0
        assert wrapped.total_service_time_s == plain.total_service_time_s
        assert wrapped.keepalive_cost_usd == plain.keepalive_cost_usd
        assert wrapped.mean_accuracy == plain.mean_accuracy
        assert wrapped.policy_name == plain.policy_name

    def test_fault_is_observable(self, small_trace, assignment):
        policy = ResilientPolicy(CrashOnPlan())
        r = Simulation(
            small_trace, assignment, policy,
            SimulationConfig(observe=True),
        ).run(engine="reference")
        faults = [rec for rec in r.obs.records if rec["kind"] == "policy_fault"]
        assert len(faults) == 1
        assert faults[0]["hook"] == "plan"
        assert faults[0]["error"] == "RuntimeError: boom"
        assert faults[0]["fid"] == 2

    def test_double_wrap_rejected(self):
        with pytest.raises(ValueError, match="already"):
            ResilientPolicy(ResilientPolicy(OpenWhiskPolicy()))

    def test_resilience_stats_shape(self):
        policy = ResilientPolicy(OpenWhiskPolicy())
        assert policy.resilience_stats(100) == {
            "n_policy_faults": 0,
            "n_degraded_minutes": 0,
        }

    def test_fallback_window_is_the_paper_default(self):
        assert FALLBACK_WINDOW_MINUTES == 10


class TestWrappedBinding:
    """The wrapper passes the trace through ``bind`` itself: a wrapped
    oracle still reads its counts, a wrapped honest policy runs as bare."""

    @pytest.mark.parametrize(
        "factory",
        [PulsePolicy, IntelligentOraclePolicy, IdealOraclePolicy],
        ids=["pulse", "oracle", "ideal"],
    )
    def test_wrapped_run_matches_bare(self, small_trace, assignment, factory):
        cfg = SimulationConfig(memory_capacity_mb=4000.0, capacity_seed=11)
        bare = Simulation(
            small_trace, assignment, factory(), cfg
        ).run(engine="reference")
        wrapped = Simulation(
            small_trace, assignment, ResilientPolicy(factory()), cfg
        ).run(engine="reference")
        assert wrapped.n_policy_faults == 0
        assert_identical(bare, wrapped)
