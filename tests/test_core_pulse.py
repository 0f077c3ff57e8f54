"""Tests for repro.core.pulse — the assembled policy."""

import io
import pickle

import numpy as np
import pytest

from repro.baselines.openwhisk import OpenWhiskPolicy
from repro.baselines.static import IntelligentOraclePolicy
from repro.core.pulse import PulseConfig, PulsePolicy
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import FunctionSpec, Trace


def one_function_trace(counts):
    counts = np.asarray([counts], dtype=np.int64)
    return Trace(counts=counts, functions=(FunctionSpec(0, "f0"),))


class TestPulseConfig:
    def test_defaults_match_paper(self):
        cfg = PulseConfig()
        assert cfg.local_window == 60
        assert cfg.memory_threshold == 0.10
        assert cfg.threshold_scheme == "T1"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("local_window", 0),
            ("memory_threshold", 0.0),
            ("threshold_scheme", "T9"),
            ("cold_variant", "median"),
            ("probability_normalization", "l1"),
            ("probability_mode", "fourier"),
            ("window", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises((ValueError, KeyError)):
            PulseConfig(**{field: value})

    def test_t2_name(self):
        assert PulsePolicy(PulseConfig(threshold_scheme="T2")).name == "PULSE-T2"
        assert PulsePolicy().name == "PULSE"


class TestPulseBehaviour:
    def test_unbound_policy_raises(self):
        p = PulsePolicy()
        with pytest.raises(RuntimeError, match="not bound"):
            p.assignment

    def test_window_cannot_exceed_engine(self, small_trace, assignment):
        p = PulsePolicy(PulseConfig(window=20))
        with pytest.raises(ValueError, match="exceeds"):
            Simulation(small_trace, assignment, p,
                       SimulationConfig(keep_alive_window=10)).run()

    def test_cold_variant_choices(self, gpt):
        trace = one_function_trace([1, 0, 0])
        r_high = Simulation(trace, {0: gpt}, PulsePolicy()).run()
        r_low = Simulation(
            trace, {0: gpt}, PulsePolicy(PulseConfig(cold_variant="lowest"))
        ).run()
        assert r_high.mean_accuracy == pytest.approx(gpt.highest.accuracy)
        assert r_low.mean_accuracy == pytest.approx(gpt.lowest.accuracy)

    def test_no_history_behaves_like_openwhisk(self, gpt):
        # Before any inter-arrival data, PULSE keeps the highest variant
        # for the full window -- identical cost and service as OpenWhisk.
        trace = one_function_trace([1] + [0] * 15)
        pulse = Simulation(trace, {0: gpt}, PulsePolicy()).run()
        ow = Simulation(trace, {0: gpt}, OpenWhiskPolicy()).run()
        assert pulse.keepalive_cost_usd == pytest.approx(ow.keepalive_cost_usd)
        assert pulse.total_service_time_s == pytest.approx(ow.total_service_time_s)

    @pytest.mark.parametrize("mode", ["exact", "hazard"])
    def test_learns_timer_and_cuts_cost(self, gpt, mode):
        counts = np.zeros(600, dtype=np.int64)
        counts[::6] = 1  # exact 6-minute timer
        trace = one_function_trace(counts)
        policy = PulsePolicy(PulseConfig(probability_mode=mode))
        pulse = Simulation(trace, {0: gpt}, policy).run()
        ow = Simulation(trace, {0: gpt}, OpenWhiskPolicy()).run()
        # Concentrated modes keep the highest variant only at the timer's
        # firing minute, cutting cost without extra cold starts.
        assert pulse.keepalive_cost_usd < 0.6 * ow.keepalive_cost_usd
        assert pulse.n_cold == ow.n_cold
        assert pulse.total_service_time_s <= ow.total_service_time_s

    def test_timer_never_costs_more_than_openwhisk(self, gpt):
        counts = np.zeros(600, dtype=np.int64)
        counts[::6] = 1
        trace = one_function_trace(counts)
        pulse = Simulation(trace, {0: gpt}, PulsePolicy()).run()
        ow = Simulation(trace, {0: gpt}, OpenWhiskPolicy()).run()
        assert pulse.keepalive_cost_usd <= ow.keepalive_cost_usd
        assert pulse.n_cold == ow.n_cold

    def test_diagnostics_exposed(self, small_trace, assignment):
        p = PulsePolicy()
        Simulation(small_trace, assignment, p).run()
        assert p.n_downgrades >= 0
        assert p.n_peak_minutes >= 0
        assert len(p.priority_counts) == small_trace.n_functions

    def test_global_disabled_means_no_downgrades(self, small_trace, assignment):
        p = PulsePolicy(PulseConfig(enable_global=False))
        Simulation(small_trace, assignment, p).run()
        assert p.n_downgrades == 0
        assert p.n_peak_minutes == 0

    def test_deterministic(self, small_trace, assignment):
        a = Simulation(small_trace, assignment, PulsePolicy()).run()
        b = Simulation(small_trace, assignment, PulsePolicy()).run()
        assert a.keepalive_cost_usd == b.keepalive_cost_usd
        assert a.total_service_time_s == b.total_service_time_s
        assert a.mean_accuracy == b.mean_accuracy


class TestPulseHeadlineShape:
    """The paper's qualitative claims on a full multi-function run."""

    @pytest.fixture(scope="class")
    def runs(self, small_trace, zoo):
        fams = list(zoo)
        assignment = {
            fid: fams[fid % len(fams)] for fid in range(small_trace.n_functions)
        }
        return {
            "pulse": Simulation(small_trace, assignment, PulsePolicy()).run(),
            "openwhisk": Simulation(small_trace, assignment, OpenWhiskPolicy()).run(),
        }

    def test_cost_reduced(self, runs):
        assert runs["pulse"].keepalive_cost_usd < runs["openwhisk"].keepalive_cost_usd

    def test_service_time_not_worse(self, runs):
        assert (
            runs["pulse"].total_service_time_s
            <= runs["openwhisk"].total_service_time_s
        )

    def test_accuracy_close_to_best(self, runs):
        drop = runs["openwhisk"].mean_accuracy - runs["pulse"].mean_accuracy
        assert 0.0 <= drop < 5.0

    def test_warm_starts_comparable(self, runs):
        assert runs["pulse"].warm_fraction >= runs["openwhisk"].warm_fraction - 0.05


class _TypeSpy(pickle.Pickler):
    """A pickler that notes the type of every object it serializes."""

    def __init__(self, file):
        super().__init__(file)
        self.types: set[type] = set()

    def reducer_override(self, obj):
        self.types.add(type(obj))
        return NotImplemented


def pickled_types(obj) -> set[type]:
    spy = _TypeSpy(io.BytesIO())
    spy.dump(obj)
    return spy.types


class TestBoundState:
    def test_bound_policy_holds_no_trace(self, small_trace, assignment):
        policy = PulsePolicy()
        Simulation(small_trace, assignment, policy).run()
        assert policy.n_functions == small_trace.n_functions
        assert Trace not in pickled_types(policy)

    def test_oracle_keeps_the_trace(self, small_trace, assignment):
        policy = IntelligentOraclePolicy()
        policy.bind(small_trace, assignment, 10)
        assert Trace in pickled_types(policy)
