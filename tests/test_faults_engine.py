"""Golden equivalence and determinism of fault injection on both engines.

The determinism contract (see :mod:`repro.faults.plan`): a fixed
:class:`FaultPlan` produces bit-identical metrics on the reference and
fleet engines, because every fault draw is keyed on the plan's seed and
the (function, minute) coordinate, never on engine call order. These
tests extend the reference-vs-fleet golden matrix of
``test_engine_fleet.py`` along the fault axes.
"""

from __future__ import annotations

import pytest
from tests.test_engine_fleet import POLICIES, assert_identical, ref_vs_fleet

from repro.faults.plan import FaultPlan
from repro.obs.session import ObservabilityConfig
from repro.runtime.simulator import Simulation, SimulationConfig

SPAWN_PLAN = FaultPlan(seed=7, spawn_failure_rate=0.3, cold_slowdown_rate=0.2)
FULL_PLAN = FaultPlan(
    seed=7, spawn_failure_rate=0.3, cold_slowdown_rate=0.2,
    pressure_rate=0.05, pressure_cap_mb=5000.0,
    drop_rate=0.02, duplicate_rate=0.02, jitter_rate=0.02,
)


class TestFaultGoldenEquivalence:
    @pytest.mark.parametrize("name", ["openwhisk", "pulse", "random-mixed"])
    def test_spawn_and_slowdown(self, small_trace, assignment, name):
        cfg = SimulationConfig(faults=SPAWN_PLAN)
        ref, fleet = ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        assert ref.n_spawn_failures > 0  # the axis is actually exercised
        assert_identical(ref, fleet)

    @pytest.mark.parametrize("name", ["openwhisk", "pulse"])
    def test_every_axis_at_once(self, small_trace, assignment, name):
        cfg = SimulationConfig(faults=FULL_PLAN)
        ref, fleet = ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        assert ref.n_spawn_failures > 0
        assert_identical(ref, fleet)

    def test_pressure_without_standing_capacity(self, small_trace, assignment):
        # Spike minutes impose a cap even when memory_capacity_mb is None.
        plan = FaultPlan(seed=3, pressure_rate=0.3, pressure_cap_mb=3000.0)
        cfg = SimulationConfig(faults=plan, capacity_seed=11)
        ref, fleet = ref_vs_fleet(
            small_trace, assignment, POLICIES["openwhisk"], cfg
        )
        assert ref.n_forced_downgrades > 0
        assert_identical(ref, fleet)

    def test_pressure_combines_with_standing_capacity(
        self, small_trace, assignment
    ):
        plan = FaultPlan(seed=3, pressure_rate=0.2, pressure_cap_mb=3000.0)
        cfg = SimulationConfig(
            faults=plan, memory_capacity_mb=4000.0, capacity_seed=11
        )
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, POLICIES["pulse"], cfg)
        )

    def test_faults_with_events_and_observability(
        self, small_trace, assignment
    ):
        cfg = SimulationConfig(
            faults=SPAWN_PLAN,
            observe=ObservabilityConfig(trace_sample=small_trace.n_functions),
        )
        ref, fleet = ref_vs_fleet(
            small_trace, assignment, POLICIES["pulse"], cfg
        )
        assert_identical(ref, fleet)  # decision traces included

        # The fleet engine records its traced sample (here every fid) in
        # its own order; the fault records themselves match.
        def spawn_faults(result):
            return sorted(
                (r for r in result.obs.records if r["kind"] == "spawn_fault"),
                key=lambda r: (r["t"], r["fid"]),
            )

        assert spawn_faults(ref)
        assert spawn_faults(ref) == spawn_faults(fleet)


class TestFaultDeterminism:
    def test_same_seed_same_run(self, small_trace, assignment):
        cfg = SimulationConfig(faults=FULL_PLAN)
        a = Simulation(
            small_trace, assignment, POLICIES["pulse"](), cfg
        ).run(engine="reference")
        b = Simulation(
            small_trace, assignment, POLICIES["pulse"](), cfg
        ).run(engine="reference")
        assert a.total_service_time_s == b.total_service_time_s
        assert a.n_spawn_failures == b.n_spawn_failures
        assert a.n_retries == b.n_retries

    def test_different_seed_different_faults(self, small_trace, assignment):
        runs = []
        for seed in (1, 2):
            cfg = SimulationConfig(
                faults=FaultPlan(seed=seed, spawn_failure_rate=0.5)
            )
            runs.append(
                Simulation(
                    small_trace, assignment, POLICIES["openwhisk"](), cfg
                ).run(engine="reference")
            )
        assert runs[0].total_service_time_s != runs[1].total_service_time_s

    def test_inactive_plan_is_no_plan(self, small_trace, assignment):
        base = Simulation(
            small_trace, assignment, POLICIES["pulse"](), SimulationConfig()
        ).run(engine="reference")
        noop = Simulation(
            small_trace, assignment, POLICIES["pulse"](),
            SimulationConfig(faults=FaultPlan()),
        ).run(engine="reference")
        assert noop.total_service_time_s == base.total_service_time_s
        assert noop.keepalive_cost_usd == base.keepalive_cost_usd
        assert noop.mean_accuracy == base.mean_accuracy
        assert noop.n_spawn_failures == 0

    def test_faults_never_lose_invocations(self, small_trace, assignment):
        # Spawn failures delay; they must not drop invocations.
        cfg = SimulationConfig(faults=SPAWN_PLAN)
        r = Simulation(
            small_trace, assignment, POLICIES["openwhisk"](), cfg
        ).run(engine="reference")
        assert r.n_invocations == small_trace.total_invocations()
        assert r.total_service_time_s > 0

    def test_config_rejects_non_plan(self):
        with pytest.raises(TypeError, match="faults"):
            SimulationConfig(faults={"spawn_failure_rate": 0.1})
