"""repro.api: the policy registry and the simulate facade."""

from __future__ import annotations

import pickle
from functools import partial

import pytest

from repro.api import (
    PolicySpec,
    list_policies,
    make_policy,
    policy_spec,
    register_policy,
    run_sweep,
    simulate,
)
from repro.baselines.openwhisk import OpenWhiskPolicy
from repro.core.pulse import PulseConfig, PulsePolicy
from repro.faults.isolation import ResilientPolicy
from repro.faults.plan import FaultPlan
from repro.runtime.simulator import Simulation, SimulationConfig


class TestRegistry:
    def test_bundled_policies_present(self):
        names = list_policies()
        for expected in (
            "pulse", "pulse-t2", "openwhisk", "all-low", "random-mixed",
            "ideal", "wild", "icebreaker", "wild+pulse", "icebreaker+pulse",
            "milp",
        ):
            assert expected in names

    def test_make_policy_constructs_fresh_instances(self):
        a, b = make_policy("pulse"), make_policy("pulse")
        assert isinstance(a, PulsePolicy)
        assert a is not b

    def test_make_policy_kwargs_pass_through(self):
        policy = make_policy(
            "pulse", config=PulseConfig(threshold_scheme="T2")
        )
        assert policy.config.threshold_scheme == "T2"

    def test_make_policy_resilient_wraps(self):
        policy = make_policy("openwhisk", resilient=True)
        assert isinstance(policy, ResilientPolicy)
        assert policy.name == OpenWhiskPolicy().name

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="pulse"):
            make_policy("does-not-exist")

    def test_keep_alive_windows(self):
        assert policy_spec("pulse").keep_alive_window == 10
        assert policy_spec("openwhisk").keep_alive_window == 10
        for name in ("wild", "icebreaker", "wild+pulse", "icebreaker+pulse"):
            assert policy_spec(name).keep_alive_window == 240

    def test_register_rejects_non_spec(self):
        with pytest.raises(TypeError):
            register_policy(OpenWhiskPolicy)

    def test_factories_are_picklable(self):
        # Sweep factories fan out over process pools.
        factory = partial(make_policy, "pulse", resilient=True)
        rebuilt = pickle.loads(pickle.dumps(factory))
        assert isinstance(rebuilt(), ResilientPolicy)
        for name in list_policies():
            pickle.dumps(policy_spec(name).factory)

    def test_register_custom_policy(self):
        spec = PolicySpec(
            "test-custom", lambda **kw: OpenWhiskPolicy(**kw), "test entry"
        )
        try:
            register_policy(spec)
            assert "test-custom" in list_policies()
            assert isinstance(make_policy("test-custom"), OpenWhiskPolicy)
        finally:
            from repro.api import _REGISTRY

            _REGISTRY.pop("test-custom", None)


class TestSimulateFacade:
    def test_name_matches_manual_construction(self, small_trace, assignment):
        via_facade = simulate(small_trace, assignment=assignment, policy="openwhisk")
        manual = Simulation(
            small_trace, assignment, OpenWhiskPolicy(), SimulationConfig()
        ).run(engine="auto")
        assert via_facade.total_service_time_s == manual.total_service_time_s
        assert via_facade.keepalive_cost_usd == manual.keepalive_cost_usd
        assert via_facade.mean_accuracy == manual.mean_accuracy

    def test_engines_agree(self, small_trace, assignment):
        ref = simulate(
            small_trace, assignment=assignment, policy="pulse",
            engine="reference",
        )
        fleet = simulate(
            small_trace, assignment=assignment, policy="pulse",
            engine="fleet",
        )
        assert ref.total_service_time_s == fleet.total_service_time_s
        assert ref.keepalive_cost_usd == fleet.keepalive_cost_usd

    def test_policy_instance_accepted(self, small_trace, assignment):
        r = simulate(
            small_trace, assignment=assignment, policy=OpenWhiskPolicy()
        )
        assert r.policy_name == "OpenWhisk"

    def test_long_window_policy_gets_its_window(self, small_trace, assignment):
        # "wild" plans 4-hour windows; the facade must run it at 240.
        policy = make_policy("wild")
        simulate(
            small_trace, assignment=assignment, policy="wild"
        )  # must not truncate
        r240 = Simulation(
            small_trace, assignment, policy,
            SimulationConfig(keep_alive_window=240),
        ).run(engine="auto")
        via = simulate(small_trace, assignment=assignment, policy="wild")
        assert via.keepalive_cost_usd == r240.keepalive_cost_usd

    def test_explicit_config_wins(self, small_trace, assignment):
        # A caller-provided config is authoritative, window included.
        r = simulate(
            small_trace, assignment=assignment, policy="openwhisk",
            config=SimulationConfig(record_series=False),
        )
        assert r.memory_series_mb is None

    def test_faults_as_plan_and_spec(self, small_trace, assignment):
        plan = FaultPlan(seed=7, spawn_failure_rate=0.3)
        via_plan = simulate(
            small_trace, assignment=assignment, policy="openwhisk", faults=plan
        )
        via_spec = simulate(
            small_trace, assignment=assignment, policy="openwhisk",
            faults="seed=7,spawn=0.3",
        )
        assert via_plan.n_spawn_failures > 0
        assert via_plan.n_spawn_failures == via_spec.n_spawn_failures
        assert via_plan.total_service_time_s == via_spec.total_service_time_s

    def test_bad_engine_rejected(self, small_trace, assignment):
        with pytest.raises(ValueError, match="engine"):
            simulate(
                small_trace, assignment=assignment, policy="openwhisk",
                engine="turbo",
            )


class TestRunSweepFacade:
    def test_in_process_sweep_records_errors(self, tiny_trace):
        from repro.experiments.runner import ExperimentConfig
        from repro.runtime.metrics import RunResult

        results = run_sweep(
            tiny_trace,
            policies=["pulse", "openwhisk"],
            config=ExperimentConfig(n_runs=2, horizon_minutes=60, seed=3),
        )
        assert sorted(results) == ["openwhisk", "pulse"]
        assert all(
            isinstance(r, RunResult)
            for runs in results.values()
            for r in runs
        )

    def test_unknown_policy_fails_fast(self, tiny_trace):
        with pytest.raises(ValueError, match="unknown policy"):
            run_sweep(tiny_trace, policies=["nope"])

    def test_durable_knobs_require_durable(self, tiny_trace, tmp_path):
        with pytest.raises(ValueError, match="durable=True"):
            run_sweep(tiny_trace, policies=["pulse"], out_dir=tmp_path)

    def test_durable_requires_out_dir(self, tiny_trace):
        with pytest.raises(ValueError, match="out_dir"):
            run_sweep(tiny_trace, policies=["pulse"], durable=True)

    def test_durable_sweep_end_to_end(self, tiny_trace, tmp_path):
        from repro.experiments.runner import ExperimentConfig

        result = run_sweep(
            tiny_trace,
            policies=["pulse"],
            config=ExperimentConfig(
                n_runs=2, horizon_minutes=60, seed=3, engine="reference"
            ),
            durable=True,
            out_dir=tmp_path,
        )
        assert result.ok
        assert (tmp_path / "manifest.json").exists()
        # resume-by-path of a finished sweep is a no-op that reloads
        resumed = run_sweep(
            tiny_trace,
            policies=["pulse"],
            config=ExperimentConfig(
                n_runs=2, horizon_minutes=60, seed=3, engine="reference"
            ),
            durable=True,
            resume=tmp_path / "manifest.json",
        )
        assert resumed.ok
        assert resumed.summaries == result.summaries
