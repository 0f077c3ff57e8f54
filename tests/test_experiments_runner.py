"""Tests for repro.experiments.runner configuration and orchestration."""

import pytest

from repro.baselines.openwhisk import OpenWhiskPolicy
from repro.experiments.runner import (
    ExperimentConfig,
    default_trace,
    run_policies,
    run_policy,
)
from repro.experiments.assignments import sample_assignment
from repro.traces.schema import MINUTES_PER_DAY


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_runs == 20
        assert cfg.horizon_minutes == 2 * MINUTES_PER_DAY
        assert cfg.n_jobs == 1

    @pytest.mark.parametrize(
        "field,value",
        [("n_runs", 0), ("horizon_minutes", 0), ("n_jobs", 0)],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    def test_default_trace_matches_horizon(self):
        cfg = ExperimentConfig(n_runs=1, horizon_minutes=333, seed=5)
        trace = default_trace(cfg)
        assert trace.horizon == 333
        assert trace.n_functions == 12

    def test_default_trace_deterministic(self):
        cfg = ExperimentConfig(n_runs=1, horizon_minutes=200, seed=5)
        import numpy as np

        np.testing.assert_array_equal(
            default_trace(cfg).counts, default_trace(cfg).counts
        )


class TestRunPolicy:
    def test_single_run_wrapper(self, small_trace, zoo):
        assignment = sample_assignment(small_trace.n_functions, zoo, seed=0)
        r = run_policy(small_trace, assignment, OpenWhiskPolicy())
        assert r.policy_name == "OpenWhisk"
        assert r.n_invocations == small_trace.total_invocations()


class TestRunPolicies:
    def test_distinct_assignments_across_runs(self):
        cfg = ExperimentConfig(n_runs=3, horizon_minutes=240, seed=7)
        trace = default_trace(cfg)
        results = run_policies(trace, {"ow": OpenWhiskPolicy}, cfg)
        costs = {round(r.keepalive_cost_usd, 6) for r in results["ow"]}
        assert len(costs) > 1  # different assignments change the metrics

    def test_seed_reproducibility(self):
        cfg = ExperimentConfig(n_runs=2, horizon_minutes=240, seed=7)
        trace = default_trace(cfg)
        a = run_policies(trace, {"ow": OpenWhiskPolicy}, cfg)
        b = run_policies(trace, {"ow": OpenWhiskPolicy}, cfg)
        for ra, rb in zip(a["ow"], b["ow"]):
            assert ra.keepalive_cost_usd == rb.keepalive_cost_usd

    def test_parallel_matches_serial(self):
        # The shared-executor path (trace shipped once via the pool
        # initializer) must give the same per-run metrics as in-process.
        from dataclasses import replace

        from repro.baselines.static import AllLowQualityPolicy
        from repro.runtime.simulator import SimulationConfig

        cfg = ExperimentConfig(
            n_runs=3,
            horizon_minutes=240,
            seed=7,
            sim=SimulationConfig(record_series=False),
        )
        trace = default_trace(cfg)
        policies = {"ow": OpenWhiskPolicy, "low": AllLowQualityPolicy}
        serial = run_policies(trace, policies, cfg)
        parallel = run_policies(trace, policies, replace(cfg, n_jobs=2))
        for name in policies:
            for rs, rp in zip(serial[name], parallel[name]):
                assert rs.keepalive_cost_usd == rp.keepalive_cost_usd
                assert rs.total_service_time_s == rp.total_service_time_s
                assert rs.n_invocations == rp.n_invocations

    def test_parallel_single_policy(self):
        from dataclasses import replace

        cfg = ExperimentConfig(n_runs=2, horizon_minutes=240, seed=3)
        trace = default_trace(cfg)
        serial = run_policies(trace, {"ow": OpenWhiskPolicy}, cfg)
        parallel = run_policies(
            trace, {"ow": OpenWhiskPolicy}, replace(cfg, n_jobs=2)
        )
        for rs, rp in zip(serial["ow"], parallel["ow"]):
            assert rs.keepalive_cost_usd == rp.keepalive_cost_usd


def _exploding_factory():
    """Module-level so the process pool can pickle it."""
    raise RuntimeError("policy construction exploded")


class TestFailureSemantics:
    """Regression: one crashing run must not abort the whole sweep."""

    def _policies(self):
        from repro.baselines.openwhisk import OpenWhiskPolicy

        return {"ow": OpenWhiskPolicy, "boom": _exploding_factory}

    def test_record_mode_isolates_the_failure(self):
        from repro.experiments.runner import RunError, split_errors
        from repro.runtime.metrics import RunResult

        cfg = ExperimentConfig(n_runs=3, horizon_minutes=120, seed=5)
        trace = default_trace(cfg)
        results = run_policies(
            trace, self._policies(), cfg, on_error="record"
        )
        # The healthy policy's runs all completed...
        assert all(isinstance(r, RunResult) for r in results["ow"])
        # ...and the crashing one produced aligned error records.
        assert all(isinstance(r, RunError) for r in results["boom"])
        assert [e.run_index for e in results["boom"]] == [0, 1, 2]
        assert results["boom"][0].error_type == "RuntimeError"
        assert "exploded" in results["boom"][0].message
        ok, errors = split_errors(results)
        assert len(ok["ow"]) == 3 and ok["boom"] == []
        assert len(errors) == 3

    def test_record_mode_isolates_in_process_pools(self):
        from dataclasses import replace

        from repro.experiments.runner import RunError
        from repro.runtime.metrics import RunResult

        cfg = ExperimentConfig(n_runs=2, horizon_minutes=120, seed=5, n_jobs=2)
        trace = default_trace(cfg)
        results = run_policies(
            trace, self._policies(), replace(cfg), on_error="record"
        )
        assert all(isinstance(r, RunResult) for r in results["ow"])
        assert all(isinstance(r, RunError) for r in results["boom"])

    def test_raise_mode_still_propagates(self):
        cfg = ExperimentConfig(n_runs=1, horizon_minutes=120, seed=5)
        trace = default_trace(cfg)
        with pytest.raises(RuntimeError, match="exploded"):
            run_policies(trace, self._policies(), cfg, on_error="raise")

    def test_raise_is_the_default(self):
        cfg = ExperimentConfig(n_runs=1, horizon_minutes=120, seed=5)
        trace = default_trace(cfg)
        with pytest.raises(RuntimeError, match="exploded"):
            run_policies(trace, self._policies(), cfg)

    def test_bogus_on_error_rejected(self):
        cfg = ExperimentConfig(n_runs=1, horizon_minutes=120, seed=5)
        trace = default_trace(cfg)
        with pytest.raises(ValueError, match="on_error"):
            run_policies(trace, self._policies(), cfg, on_error="ignore")
