"""Tests for the engine's memory-capacity pressure valve."""

import numpy as np
import pytest

from repro.baselines.openwhisk import OpenWhiskPolicy
from repro.core.pulse import PulsePolicy
from repro.experiments.capacity import memory_capacity_study
from repro.experiments.runner import ExperimentConfig
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import FunctionSpec, Trace


def make_trace(counts):
    counts = np.asarray(counts, dtype=np.int64)
    specs = tuple(FunctionSpec(i, f"f{i}") for i in range(counts.shape[0]))
    return Trace(counts=counts, functions=specs)


class TestCapacityValve:
    def test_memory_never_exceeds_capacity(self, gpt, bert):
        counts = np.zeros((2, 40), dtype=np.int64)
        counts[:, [0, 5, 10]] = 1
        trace = make_trace(counts)
        cap = gpt.highest.memory_mb + 10.0  # fits one big container only
        cfg = SimulationConfig(memory_capacity_mb=cap)
        r = Simulation(trace, {0: gpt, 1: bert}, OpenWhiskPolicy(), cfg).run()
        assert r.memory_series_mb.max() <= cap + 1e-9
        assert r.n_forced_downgrades > 0

    def test_uncapped_has_no_forced_downgrades(self, gpt, bert):
        counts = np.zeros((2, 40), dtype=np.int64)
        counts[:, [0, 5]] = 1
        trace = make_trace(counts)
        r = Simulation(trace, {0: gpt, 1: bert}, OpenWhiskPolicy()).run()
        assert r.n_forced_downgrades == 0

    def test_generous_cap_is_inert(self, gpt, bert):
        counts = np.zeros((2, 40), dtype=np.int64)
        counts[:, [0, 5]] = 1
        trace = make_trace(counts)
        cfg = SimulationConfig(memory_capacity_mb=1e9)
        r = Simulation(trace, {0: gpt, 1: bert}, OpenWhiskPolicy(), cfg).run()
        assert r.n_forced_downgrades == 0

    def test_forced_downgrades_cause_cold_starts(self, gpt):
        # One big-model function re-invoking inside the window: with a cap
        # below its footprint, the keep-alive is shed and the next
        # invocation is cold.
        counts = np.zeros((1, 20), dtype=np.int64)
        counts[0, [0, 5]] = 1
        trace = make_trace(counts)
        cfg = SimulationConfig(memory_capacity_mb=gpt.lowest.memory_mb - 1.0)
        r = Simulation(trace, {0: gpt}, OpenWhiskPolicy(), cfg).run()
        assert r.n_cold == 2

    def test_capacity_seed_determinism(self, gpt, bert):
        counts = np.zeros((2, 60), dtype=np.int64)
        counts[:, ::4] = 1
        trace = make_trace(counts)
        cfg = SimulationConfig(memory_capacity_mb=2000.0, capacity_seed=3)
        a = Simulation(trace, {0: gpt, 1: bert}, OpenWhiskPolicy(), cfg).run()
        b = Simulation(trace, {0: gpt, 1: bert}, OpenWhiskPolicy(), cfg).run()
        assert a.n_forced_downgrades == b.n_forced_downgrades
        assert a.total_service_time_s == b.total_service_time_s

    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_valve_draw_matches_generator_choice(self, seed):
        """Both valves draw ``alive[rng.integers(0, alive.size)]`` and
        delete a dropped victim at its drawn position: the same victims
        as ``rng.choice(alive)`` with ``alive[alive != victim]``, and the
        same generator state afterwards, draw for draw over a shrinking
        candidate array."""
        by_choice = np.random.default_rng(seed)
        by_index = np.random.default_rng(seed)
        drop = np.random.default_rng(seed + 1)
        a = np.arange(0, 3000, 3, dtype=np.int64)
        b = a.copy()
        for _ in range(5000):
            if not a.size:
                break
            victim = int(by_choice.choice(a))
            at = int(by_index.integers(0, b.size))
            assert int(b[at]) == victim
            if drop.random() < 0.2:
                a = a[a != victim]
                b = np.concatenate((b[:at], b[at + 1:]))
            np.testing.assert_array_equal(a, b)
        assert by_choice.bit_generator.state == by_index.bit_generator.state

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(memory_capacity_mb=0.0)


class TestCapacityStudy:
    def test_pulse_preempts_forced_downgrades(self, small_trace):
        cfg = ExperimentConfig(n_runs=1, horizon_minutes=720, seed=6)
        points = memory_capacity_study((6000.0,), cfg)
        p = points[0]
        assert p.openwhisk_forced_downgrades > p.pulse_forced_downgrades

    def test_monotone_in_capacity(self):
        cfg = ExperimentConfig(n_runs=1, horizon_minutes=720, seed=6)
        points = memory_capacity_study((5000.0, 20000.0), cfg)
        assert (
            points[0].openwhisk_forced_downgrades
            >= points[1].openwhisk_forced_downgrades
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            memory_capacity_study(())
        with pytest.raises(ValueError):
            memory_capacity_study((-5.0,), ExperimentConfig(n_runs=1, horizon_minutes=60))
