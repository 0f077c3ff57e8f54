"""Differential tests: the minute-loop engine vs the closed-form
reference implementation of fixed keep-alive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.openwhisk import FixedKeepAlivePolicy, OpenWhiskPolicy
from repro.models.zoo import default_zoo
from repro.runtime.replay import FixedPolicyReference
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import FunctionSpec, Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

ZOO = default_zoo()
FAMILIES = list(ZOO)


def trace_from_matrix(matrix) -> Trace:
    counts = np.asarray(matrix, dtype=np.int64)
    specs = tuple(FunctionSpec(i, f"f{i}") for i in range(counts.shape[0]))
    return Trace(counts=counts, functions=specs)


def assert_engines_agree(trace, level="highest", window=10):
    assignment = {f: FAMILIES[f % len(FAMILIES)] for f in range(trace.n_functions)}
    policy = (
        OpenWhiskPolicy() if level == "highest" else FixedKeepAlivePolicy("lowest")
    )
    cfg = SimulationConfig(keep_alive_window=window)
    engine = Simulation(trace, assignment, policy, cfg).run()
    ref = FixedPolicyReference(keep_alive_window=window, level=level).run(
        trace, assignment
    )
    assert engine.n_cold == ref.n_cold
    assert engine.n_warm == ref.n_warm
    assert engine.total_service_time_s == pytest.approx(ref.total_service_time_s)
    assert engine.keepalive_cost_usd == pytest.approx(ref.keepalive_cost_usd)
    assert engine.mean_accuracy == pytest.approx(ref.mean_accuracy)


class TestDifferential:
    def test_simple_trace(self):
        assert_engines_agree(trace_from_matrix([[1, 0, 0, 2, 0, 0, 0, 0, 0, 0,
                                                 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]]))

    def test_synthetic_trace_highest(self):
        trace = generate_trace(SyntheticTraceConfig(horizon_minutes=720, seed=21))
        assert_engines_agree(trace, level="highest")

    def test_synthetic_trace_lowest(self):
        trace = generate_trace(SyntheticTraceConfig(horizon_minutes=720, seed=22))
        assert_engines_agree(trace, level="lowest")

    @pytest.mark.parametrize("window", [1, 5, 10, 17])
    def test_across_windows(self, window):
        trace = generate_trace(SyntheticTraceConfig(horizon_minutes=400, seed=23))
        assert_engines_agree(trace, window=window)

    @given(
        matrix=st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=0, max_value=2), min_size=25,
                         max_size=25),
                min_size=n,
                max_size=n,
            )
        ),
        window=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_agreement(self, matrix, window):
        assert_engines_agree(trace_from_matrix(matrix), window=window)

    def test_keepalive_clipped_at_horizon(self):
        # Arrival near the end: the window must not bill past the horizon.
        trace = trace_from_matrix([[0, 0, 0, 0, 0, 0, 0, 1, 0, 0]])
        assignment = {0: FAMILIES[0]}
        ref = FixedPolicyReference().run(trace, assignment)
        variant = FAMILIES[0].highest
        assert ref.keepalive_mb_minutes == pytest.approx(3 * variant.memory_mb)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPolicyReference(keep_alive_window=0)
        with pytest.raises(ValueError):
            FixedPolicyReference(level="median")
