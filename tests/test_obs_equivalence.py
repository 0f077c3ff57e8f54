"""Golden equivalence: observability on vs off, both engines.

The tentpole guarantee of :mod:`repro.obs` is that instrumentation is
*metric-preserving*: recording decisions, metrics and spans must not
change a single headline number. Recorders only read simulation state —
they draw no randomness and reorder no float accumulation — so every
deterministic ``RunResult`` field must be **bit-identical** with
``observe=True`` and ``observe=None`` on the reference loop, for every
bundled policy family (the fleet engine's leg is ``test_fleet_obs.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.openwhisk import OpenWhiskPolicy
from repro.baselines.static import AllLowQualityPolicy, RandomMixedPolicy
from repro.core.pulse import PulsePolicy
from repro.milp.policy import MilpPolicy
from repro.obs.session import ObservabilityConfig
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.sota.icebreaker import IceBreakerPolicy
from repro.sota.integration import PulseIntegratedPolicy
from repro.sota.wild import WildPolicy
from tests.conftest import assert_records_equal

POLICIES = {
    "openwhisk": OpenWhiskPolicy,
    "all-low": AllLowQualityPolicy,
    "random-mixed": lambda: RandomMixedPolicy(seed=3),
    "pulse": PulsePolicy,
    "wild": WildPolicy,
    "icebreaker": IceBreakerPolicy,
    "integrated-wild": lambda: PulseIntegratedPolicy(WildPolicy()),
}

#: Every RunResult field that must not move when observability turns on.
HEADLINE = (
    "n_invocations",
    "n_warm",
    "n_cold",
    "n_forced_downgrades",
    "total_service_time_s",
    "keepalive_cost_usd",
    "mean_accuracy",
)


def run_pair(trace, assignment, factory, cfg, engine="auto"):
    off = Simulation(
        trace, assignment, factory(), replace(cfg, observe=None)
    ).run(engine=engine)
    on = Simulation(
        trace, assignment, factory(), replace(cfg, observe=True)
    ).run(engine=engine)
    return off, on


def assert_headline_identical(off, on):
    assert off.obs is None and on.obs is not None
    for field in HEADLINE:
        a, b = getattr(off, field), getattr(on, field)
        assert a == b, f"{field}: {a!r} != {b!r} with observability on"
    for a, b in (
        (off.memory_series_mb, on.memory_series_mb),
        (off.ideal_memory_series_mb, on.ideal_memory_series_mb),
    ):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)


class TestObservabilityEquivalence:
    @pytest.mark.parametrize("engine", ["reference"])
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_all_policies_both_engines(self, small_trace, assignment, name, engine):
        cfg = SimulationConfig()
        assert_headline_identical(
            *run_pair(small_trace, assignment, POLICIES[name], cfg, engine)
        )

    @pytest.mark.parametrize("engine", ["reference"])
    def test_milp(self, tiny_trace, tiny_assignment, engine):
        cfg = SimulationConfig()
        assert_headline_identical(
            *run_pair(tiny_trace, tiny_assignment, MilpPolicy, cfg, engine)
        )

    @pytest.mark.parametrize("engine", ["reference"])
    def test_with_events_and_capacity_valve(self, small_trace, assignment, engine):
        # The valve shares an RNG stream with nothing else, but its draws
        # must stay aligned run-to-run: the recorder must not consume or
        # reseed it.
        cfg = SimulationConfig(memory_capacity_mb=4000.0, capacity_seed=11)
        off, on = run_pair(small_trace, assignment, POLICIES["pulse"], cfg, engine)
        assert off.n_forced_downgrades > 0  # the axis is exercised
        assert_headline_identical(off, on)

    def test_engines_agree_while_observed(self, small_trace, assignment):
        # Cross-check: with observability on, fleet vs reference still
        # match (the existing engine-equivalence suite runs unobserved).
        cfg = SimulationConfig(
            observe=ObservabilityConfig(trace_sample=small_trace.n_functions)
        )
        ref = Simulation(
            small_trace, assignment, PulsePolicy(), cfg
        ).run(engine="reference")
        fleet = Simulation(
            small_trace, assignment, PulsePolicy(), cfg
        ).run(engine="fleet")
        for field in HEADLINE:
            assert getattr(ref, field) == getattr(fleet, field), field
        # The fleet engine records its traced sample (here every fid) in
        # its own order; the per-function decisions match.
        for kind in ("cold", "plan"):
            ours, theirs = (
                sorted(
                    (r for r in result.obs.records if r["kind"] == kind),
                    key=lambda r: (r["t"], r["fid"]),
                )
                for result in (ref, fleet)
            )
            assert ours, kind
            assert_records_equal(ours, theirs, kind)

    def test_wall_clock_and_engine_total_populated(self, small_trace, assignment):
        _, on = run_pair(
            small_trace, assignment, POLICIES["pulse"], SimulationConfig()
        )
        assert on.wall_clock_s > 0.0
        assert on.obs.spans.count("engine-total") == 1
        # Phase time is a decomposition of (part of) the run: it cannot
        # exceed the engine's own wall clock.
        assert on.obs.spans.total_seconds <= on.obs.spans.seconds("engine-total")
