"""Golden equivalence for the fleet engine.

The columnar fleet engine (:mod:`repro.runtime.fleet`) must produce
*bit-identical* results to the reference minute loop — the same contract
the fast path carries: the same ``RunResult`` and event stream,
including under capacity-valve pressure and fault plans, and under a
permutation of function ids that reorders the reducer's fid-ascending
candidate arrays.

Also home to the unit properties of the columnar kernel itself:
``seq_fold`` versus a scalar accumulation loop, and the vectorized
threshold schemes versus their scalar ``select_level``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.openwhisk import FixedKeepAlivePolicy, OpenWhiskPolicy
from repro.baselines.static import (
    AllLowQualityPolicy,
    IntelligentOraclePolicy,
    RandomMixedPolicy,
)
from repro.core.pulse import PulseConfig, PulsePolicy
from repro.core.thresholds import MonotoneScheme, TechniqueT1, TechniqueT2
from repro.faults.plan import FaultPlan
from repro.experiments.assignments import sample_assignment
from repro.models.zoo import default_zoo
from repro.runtime.columnar import seq_fold
from repro.runtime.fleet import _vector_levels
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

from tests.test_engine_fastpath import assert_identical

POLICIES = {
    "openwhisk": OpenWhiskPolicy,
    "fixed-lowest": AllLowQualityPolicy,
    "fixed-level-1": lambda: FixedKeepAlivePolicy(level=1),
    "random-mixed": lambda: RandomMixedPolicy(seed=3),
    "pulse": PulsePolicy,
    "pulse-t2": lambda: PulsePolicy(PulseConfig(threshold_scheme="T2")),
}


def ref_vs_fleet(trace, assignment, factory, cfg):
    ref = Simulation(trace, assignment, factory(), cfg).run(engine="reference")
    fleet = Simulation(trace, assignment, factory(), cfg).run(engine="fleet")
    return ref, fleet


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_default_config(self, small_trace, assignment, name):
        cfg = SimulationConfig()  # series + container pool on
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_lean_config(self, small_trace, assignment, name):
        cfg = SimulationConfig(record_series=False, track_containers=False)
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", ["openwhisk", "pulse", "pulse-t2"])
    def test_event_log(self, small_trace, assignment, name):
        cfg = SimulationConfig(record_events=True)
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", ["openwhisk", "pulse"])
    def test_capacity_valve(self, small_trace, assignment, name):
        cfg = SimulationConfig(memory_capacity_mb=4000.0, capacity_seed=11)
        ref, fleet = ref_vs_fleet(
            small_trace, assignment, POLICIES[name], cfg
        )
        assert ref.n_forced_downgrades > 0  # the axis is actually exercised
        assert_identical(ref, fleet)

    def test_capacity_and_events_together(self, small_trace, assignment):
        cfg = SimulationConfig(
            record_events=True, memory_capacity_mb=4000.0, capacity_seed=11
        )
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, PulsePolicy, cfg)
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "spawn=0.2,seed=7",
            "slow=0.3,seed=5",
            "pressure=0.1,pressure-mb=4000,seed=9",
            "drop=0.05,jitter=0.2,seed=3",
        ],
    )
    def test_fault_plans(self, small_trace, assignment, spec):
        cfg = SimulationConfig(
            record_events=True, faults=FaultPlan.from_spec(spec)
        )
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, PulsePolicy, cfg)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_fleets(self, zoo, seed):
        """Seeded 50–500-function synthetics, with and without faults."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 501))
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_minutes=180, seed=seed + 100, n_functions=n
            )
        )
        assignment = sample_assignment(n, zoo, seed=seed + 1)
        faults = (
            FaultPlan(seed=seed, spawn_failure_rate=0.1, cold_slowdown_rate=0.1)
            if seed % 2
            else None
        )
        cfg = SimulationConfig(
            record_events=True,
            memory_capacity_mb=300.0 * n,
            capacity_seed=seed,
            faults=faults,
        )
        assert_identical(
            *ref_vs_fleet(trace, assignment, PulsePolicy, cfg)
        )


    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_valve_decisions_under_fid_reversal(self, seed):
        """Property: under valve pressure, the fleet's downgrade
        decisions — victims, order, event stream — match the reference
        valve after the fid space is reversed."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 60))
        zoo = default_zoo()
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_minutes=90, seed=seed, n_functions=n
            )
        )
        assignment = sample_assignment(n, zoo, seed=seed + 1)
        # Reversal moves every function to the opposite end of the fid
        # space, so the valve's fid-ascending candidate array and the
        # capacity RNG's draws land on different functions.
        perm = np.arange(n)[::-1].copy()
        trace = trace.select_functions(list(perm), name="permuted")
        assignment = {
            new: assignment[int(old)] for new, old in enumerate(perm)
        }
        cfg = SimulationConfig(
            record_events=True,
            memory_capacity_mb=250.0 * n,
            capacity_seed=seed,
        )
        ref, fleet = ref_vs_fleet(trace, assignment, PulsePolicy, cfg)
        assert_identical(ref, fleet)


class TestColumnarKernel:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=40,
        ),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_seq_fold_matches_scalar_loop(self, values, acc0):
        acc = acc0
        for v in values:
            acc += v
        assert seq_fold(acc0, np.array(values, dtype=np.float64)) == acc

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_vector_levels_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        m, w = 16, 6  # (functions, window offsets), the kernel's shape
        probs = rng.random((m, w))
        probs[rng.random((m, w)) < 0.2] = 0.0  # exercise the p == 0 branches
        probs[rng.random((m, w)) < 0.1] = 1.0
        nv = rng.integers(1, 5, size=m)
        for scheme in (
            TechniqueT1(),
            TechniqueT2(),
            MonotoneScheme(cuts=(0.2, 0.5, 0.8)),
        ):
            got = _vector_levels(probs, nv, scheme)
            for i in range(m):
                for j in range(w):
                    want = scheme.select_level(float(probs[i, j]), int(nv[i]))
                    assert got[i, j] == (-1 if want is None else want), (
                        scheme,
                        probs[i, j],
                        nv[i],
                    )


class TestRejections:
    def test_unsupported_policy(self, small_trace, assignment):
        sim = Simulation(
            small_trace, assignment, IntelligentOraclePolicy(),
            SimulationConfig(),
        )
        with pytest.raises(ValueError, match="fleet"):
            sim.run(engine="fleet")

    def test_checkpoint_rejected(self, small_trace, assignment, tmp_path):
        from repro.runtime.checkpoint import CheckpointConfig

        sim = Simulation(
            small_trace, assignment, PulsePolicy(), SimulationConfig()
        )
        with pytest.raises(ValueError, match="checkpoint"):
            sim.run(
                engine="fleet",
                checkpoint=CheckpointConfig(path=tmp_path / "c.ckpt"),
            )

    def test_observe_accepted(self, small_trace, assignment):
        # Observability is no longer rejected: the fleet engine carries
        # a columnar FleetObsSession (full coverage in test_fleet_obs.py).
        from repro.obs.fleet import FleetObsSession

        sim = Simulation(
            small_trace, assignment, PulsePolicy(),
            SimulationConfig(observe=True),
        )
        result = sim.run(engine="fleet")
        assert isinstance(result.obs, FleetObsSession)


class TestFacadePlumbing:
    def test_api_simulate_fleet(self, small_trace, assignment):
        from repro.api import simulate

        ref = simulate(small_trace, assignment=assignment, policy=PulsePolicy())
        fleet = simulate(
            small_trace, assignment=assignment, policy=PulsePolicy(),
            engine="fleet",
        )
        assert_identical(ref, fleet)

    def test_experiment_config_accepts_fleet(self):
        from repro.experiments.runner import ExperimentConfig

        assert ExperimentConfig(engine="fleet").engine == "fleet"
        with pytest.raises(ValueError, match="engine"):
            ExperimentConfig(engine="warp")

    def test_run_policies_fleet_matches_fast(self, zoo):
        from functools import partial

        from repro.api import make_policy
        from repro.experiments.runner import ExperimentConfig, run_policies

        trace = generate_trace(
            SyntheticTraceConfig(horizon_minutes=120, seed=5)
        )
        factories = {"pulse": partial(make_policy, "pulse")}
        results = {}
        for engine in ("fast", "fleet"):
            cfg = ExperimentConfig(
                n_runs=2, horizon_minutes=120, engine=engine
            )
            results[engine] = run_policies(trace, factories, cfg, zoo)
        for a, b in zip(results["fast"]["pulse"], results["fleet"]["pulse"]):
            assert_identical(a, b)
