"""Tests for repro.runtime.simulator — engine semantics."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.openwhisk import FixedKeepAlivePolicy, OpenWhiskPolicy
from repro.core.pulse import PulsePolicy
from repro.runtime.costmodel import CostModel
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import FunctionSpec, Trace


def one_function_trace(counts):
    counts = np.asarray([counts], dtype=np.int64)
    return Trace(counts=counts, functions=(FunctionSpec(0, "f0"),))


class TestEngineSemantics:
    def test_first_invocation_is_cold(self, gpt):
        trace = one_function_trace([0, 1, 0, 0])
        r = Simulation(trace, {0: gpt}, OpenWhiskPolicy()).run()
        assert r.n_cold == 1
        assert r.n_warm == 0
        assert r.total_service_time_s == pytest.approx(
            gpt.highest.cold_service_time_s
        )

    def test_reinvocation_within_window_is_warm(self, gpt):
        trace = one_function_trace([1] + [0] * 5 + [1] + [0] * 5)
        r = Simulation(trace, {0: gpt}, OpenWhiskPolicy()).run()
        assert r.n_cold == 1
        assert r.n_warm == 1

    def test_reinvocation_after_window_is_cold(self, gpt):
        counts = np.zeros(30, dtype=np.int64)
        counts[[0, 15]] = 1  # gap 15 > window 10
        r = Simulation(one_function_trace(counts), {0: gpt}, OpenWhiskPolicy()).run()
        assert r.n_cold == 2

    def test_same_minute_extra_invocations_are_warm(self, gpt):
        trace = one_function_trace([3, 0])
        r = Simulation(trace, {0: gpt}, OpenWhiskPolicy()).run()
        assert r.n_cold == 1
        assert r.n_warm == 2
        expected = gpt.highest.cold_service_time_s + 2 * gpt.highest.warm_service_time_s
        assert r.total_service_time_s == pytest.approx(expected)

    def test_keepalive_extends_on_reinvocation(self, gpt):
        # Invocations at 0 and 5: keep-alive must last through minute 15.
        counts = np.zeros(20, dtype=np.int64)
        counts[[0, 5]] = 1
        r = Simulation(one_function_trace(counts), {0: gpt}, OpenWhiskPolicy()).run()
        mem = r.memory_series_mb
        assert mem[15] == pytest.approx(gpt.highest.memory_mb)
        assert mem[16] == 0.0

    def test_fixed_policy_memory_accounting(self, gpt):
        trace = one_function_trace([1] + [0] * 19)
        cm = CostModel(usd_per_mb_minute=1.0)
        cfg = SimulationConfig(cost_model=cm)
        r = Simulation(trace, {0: gpt}, OpenWhiskPolicy(), cfg).run()
        # Alive during the invocation minute + the 10-minute window.
        assert r.keepalive_cost_usd == pytest.approx(11 * gpt.highest.memory_mb)

    def test_accuracy_is_serving_variant_accuracy(self, gpt):
        trace = one_function_trace([1, 0, 1])
        r = Simulation(trace, {0: gpt}, FixedKeepAlivePolicy("lowest")).run()
        assert r.mean_accuracy == pytest.approx(gpt.lowest.accuracy)

    def test_ideal_series_marks_invocation_minutes(self, gpt):
        trace = one_function_trace([1, 0, 1, 0])
        r = Simulation(trace, {0: gpt}, OpenWhiskPolicy()).run()
        ideal = r.ideal_memory_series_mb
        np.testing.assert_allclose(
            ideal, [gpt.highest.memory_mb, 0, gpt.highest.memory_mb, 0]
        )

    def test_warm_plus_cold_equals_invocations(self, small_trace, assignment):
        r = Simulation(small_trace, assignment, OpenWhiskPolicy()).run()
        assert r.n_warm + r.n_cold == r.n_invocations
        assert r.n_invocations == small_trace.total_invocations()

    def test_record_series_off(self, gpt):
        trace = one_function_trace([1, 0])
        cfg = SimulationConfig(record_series=False)
        r = Simulation(trace, {0: gpt}, OpenWhiskPolicy(), cfg).run()
        assert r.memory_series_mb is None

    @pytest.mark.parametrize("engine", ["reference", "fleet"])
    def test_removed_observability_keywords(
        self, tiny_trace, tiny_assignment, engine
    ):
        # The container pool and the event log are gone: False still
        # constructs, is not stored and changes nothing; True is refused.
        legacy = SimulationConfig(track_containers=False, record_events=False)
        assert legacy == SimulationConfig()
        assert "track_containers" not in vars(legacy)
        assert "record_events" not in repr(legacy)
        runs = [
            Simulation(tiny_trace, tiny_assignment, PulsePolicy(), cfg)
            .run(engine=engine).summary()
            for cfg in (SimulationConfig(), legacy)
        ]
        for summary in runs:
            del summary["wall_clock_s"]
        assert runs[0] == runs[1]
        for name in ("track_containers", "record_events"):
            msg = rf"{name}=True .*observe=ObservabilityConfig"
            with pytest.raises(ValueError, match=msg):
                SimulationConfig(**{name: True})
            with pytest.raises(ValueError, match=msg):
                replace(legacy, **{name: True})

    def test_overhead_measured_when_enabled(self, gpt):
        trace = one_function_trace([1, 1, 1, 0])
        cfg = SimulationConfig(measure_overhead=True)
        r = Simulation(trace, {0: gpt}, OpenWhiskPolicy(), cfg).run()
        assert r.policy_overhead_s > 0
        assert r.n_policy_decisions > 0

    def test_incomplete_assignment_rejected(self, gpt, small_trace):
        with pytest.raises(ValueError, match="assignment"):
            Simulation(small_trace, {0: gpt}, OpenWhiskPolicy())

    def test_deterministic(self, small_trace, assignment):
        a = Simulation(small_trace, assignment, OpenWhiskPolicy()).run()
        b = Simulation(small_trace, assignment, OpenWhiskPolicy()).run()
        assert a.total_service_time_s == b.total_service_time_s
        assert a.keepalive_cost_usd == b.keepalive_cost_usd


class TestEngineSelection:
    def test_measure_overhead_stays_on_reference(self, tiny_trace, tiny_assignment):
        # Figure 9's overhead metric needs the per-minute cadence: "auto"
        # resolves to the reference loop, and asking for "fleet" outright
        # is a contradiction the engine refuses.
        cfg = SimulationConfig(measure_overhead=True)
        ref = Simulation(
            tiny_trace, tiny_assignment, PulsePolicy(), cfg
        ).run(engine="reference")
        auto = Simulation(
            tiny_trace, tiny_assignment, PulsePolicy(), cfg
        ).run(engine="auto")
        assert auto.n_policy_decisions == ref.n_policy_decisions > 0
        with pytest.raises(ValueError, match="measure_overhead"):
            Simulation(
                tiny_trace, tiny_assignment, PulsePolicy(), cfg
            ).run(engine="fleet")

    @pytest.mark.parametrize("engine", ["warp", "fast"])
    def test_unknown_engine_rejected(self, tiny_trace, tiny_assignment, engine):
        with pytest.raises(ValueError, match="auto, reference, fleet"):
            Simulation(
                tiny_trace, tiny_assignment, PulsePolicy(), SimulationConfig()
            ).run(engine=engine)


class TestEngineWindows:
    @pytest.mark.parametrize("window", [5, 10, 15])
    def test_window_controls_keepalive_span(self, gpt, window):
        counts = np.zeros(40, dtype=np.int64)
        counts[0] = 1
        cfg = SimulationConfig(keep_alive_window=window)
        r = Simulation(one_function_trace(counts), {0: gpt}, OpenWhiskPolicy(), cfg).run()
        mem = r.memory_series_mb
        assert mem[window] > 0
        assert mem[window + 1] == 0.0
