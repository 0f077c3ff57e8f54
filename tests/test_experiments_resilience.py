"""The resilience sweep experiment (PULSE vs baselines under faults)."""

from __future__ import annotations

import pytest

from repro.experiments.resilience import (
    ResiliencePoint,
    fault_plan_at,
    resilience_sweep,
)
from repro.experiments.runner import ExperimentConfig
from repro.runtime.simulator import SimulationConfig

CONFIG = ExperimentConfig(
    n_runs=2,
    horizon_minutes=360,
    seed=7,
    sim=SimulationConfig(),
)


class TestResilienceSweep:
    def test_shape_and_clean_baseline(self, small_trace):
        points = resilience_sweep(
            config=CONFIG,
            trace=small_trace,
            policies=("pulse", "openwhisk"),
            fault_rates=(0.0, 0.2),
        )
        assert len(points) == 4
        assert all(isinstance(p, ResiliencePoint) for p in points)
        clean = [p for p in points if p.fault_rate == 0.0]
        assert {p.policy for p in clean} == {"pulse", "openwhisk"}
        for p in clean:
            assert p.n_spawn_failures == 0
            assert p.n_policy_faults == 0
            assert p.n_degraded_minutes == 0
        faulty = [p for p in points if p.fault_rate == 0.2]
        assert any(p.n_spawn_failures > 0 for p in faulty)

    def test_deterministic(self, small_trace):
        kwargs = dict(
            config=CONFIG, trace=small_trace,
            policies=("openwhisk",), fault_rates=(0.1,),
        )
        a = resilience_sweep(**kwargs)
        b = resilience_sweep(**kwargs)
        assert a == b

    def test_rates_validated(self, small_trace):
        with pytest.raises(ValueError, match="at least one"):
            resilience_sweep(config=CONFIG, trace=small_trace, fault_rates=())
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            resilience_sweep(
                config=CONFIG, trace=small_trace, fault_rates=(1.5,)
            )

    def test_fault_plan_at(self):
        plan = fault_plan_at(0.2, seed=5)
        assert plan.seed == 5
        assert plan.spawn_failure_rate == 0.2
        assert plan.cold_slowdown_rate == 0.2
        assert plan.drop_rate == 0.05
        assert plan.pressure_rate == 0.0  # no cap given
        with_cap = fault_plan_at(0.2, seed=5, pressure_cap_mb=4000.0)
        assert with_cap.pressure_rate == 0.05
        assert with_cap.pressure_cap_mb == 4000.0
