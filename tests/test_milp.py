"""Tests for repro.milp — formulation and policy."""

import numpy as np
import pytest

from repro.core.pulse import PulsePolicy
from repro.milp.formulation import build_peak_milp
from repro.milp.policy import MilpPolicy, solve_milp
from repro.runtime.simulator import Simulation, SimulationConfig


def build_problem(gpt, bert, budget, droppable=None, priorities=None, ips=None):
    alive = {0: gpt.highest, 1: bert.highest}
    assignment = {0: gpt, 1: bert}
    return build_peak_milp(
        alive=alive,
        assignment=assignment,
        priorities=priorities or {0: 0.0, 1: 0.0},
        invocation_probabilities=ips or {0: 0.5, 1: 0.5},
        droppable=droppable or {0: False, 1: False},
        budget=budget,
    )


class TestFormulation:
    def test_variable_count(self, gpt, bert):
        prob = build_problem(gpt, bert, budget=10_000)
        # GPT has 3 candidate levels, BERT 2.
        assert prob.n_variables == 5

    def test_only_downgrades_offered(self, gpt, bert):
        alive = {0: gpt.variant(1)}
        prob = build_peak_milp(
            alive=alive,
            assignment={0: gpt},
            priorities={0: 0.0},
            invocation_probabilities={0: 0.0},
            droppable={0: False},
            budget=1e6,
        )
        levels = [lv for _, lv in prob.options]
        assert set(levels) == {0, 1}  # level 2 (an upgrade) is absent

    def test_protected_set(self, gpt, bert):
        prob = build_problem(gpt, bert, 1e6, droppable={0: True, 1: False})
        assert prob.protected == frozenset({1})

    def test_negative_budget_rejected(self, gpt, bert):
        with pytest.raises(ValueError):
            build_problem(gpt, bert, budget=-1.0)

    def test_utilities_match_eq2(self, gpt, bert):
        prob = build_problem(
            gpt, bert, 1e6, priorities={0: 0.25, 1: 0.0}, ips={0: 0.5, 1: 0.0}
        )
        i = prob.function_rows[0][-1]  # GPT level 2
        expected = (93.45 - 92.35) / 100 + 0.25 + 0.5
        assert -prob.c[i] == pytest.approx(expected)


class TestSolve:
    def test_generous_budget_keeps_everything_cheap_or_better(self, gpt, bert):
        prob = build_problem(gpt, bert, budget=1e9)
        chosen = solve_milp(prob)
        assert set(chosen) == {0, 1}
        assert all(v is not None for v in chosen.values())

    def test_tight_budget_downgrades(self, gpt, bert):
        # Budget fits only the two lowest variants.
        budget = gpt.lowest.memory_mb + bert.lowest.memory_mb + 1.0
        prob = build_problem(gpt, bert, budget=budget)
        chosen = solve_milp(prob)
        assert chosen[0] == 0
        assert chosen[1] == 0

    def test_protected_functions_survive_infeasible_budget(self, gpt, bert):
        prob = build_problem(gpt, bert, budget=1.0)  # below any floor
        chosen = solve_milp(prob)
        assert chosen[0] is not None
        assert chosen[1] is not None

    def test_droppable_function_dropped_under_pressure(self, gpt, bert):
        budget = bert.lowest.memory_mb + 1.0
        prob = build_problem(
            gpt, bert, budget=budget, droppable={0: True, 1: False},
            ips={0: 0.0, 1: 0.5},
        )
        chosen = solve_milp(prob)
        assert chosen[0] is None  # GPT dropped
        assert chosen[1] == 0

    def test_empty_problem(self, gpt):
        prob = build_peak_milp(
            alive={}, assignment={}, priorities={}, invocation_probabilities={},
            droppable={}, budget=100.0,
        )
        assert solve_milp(prob) == {}


class TestMilpPolicy:
    def test_runs_end_to_end(self, small_trace, assignment):
        r = Simulation(small_trace, assignment, MilpPolicy()).run()
        assert r.policy_name == "MILP"
        assert r.n_invocations == small_trace.total_invocations()

    def test_accuracy_not_above_pulse(self, small_trace, assignment):
        # Paper: MILP favours lower-quality models -> accuracy <= PULSE.
        milp = Simulation(small_trace, assignment, MilpPolicy()).run()
        pulse = Simulation(small_trace, assignment, PulsePolicy()).run()
        assert milp.mean_accuracy <= pulse.mean_accuracy + 0.2

    def test_overhead_larger_than_pulse(self, small_trace, assignment):
        cfg = SimulationConfig(measure_overhead=True)
        milp = Simulation(small_trace, assignment, MilpPolicy(), cfg).run()
        pulse = Simulation(small_trace, assignment, PulsePolicy(), cfg).run()
        if milp.policy_overhead_s > 0 and pulse.policy_overhead_s > 0:
            assert milp.policy_overhead_s > pulse.policy_overhead_s

    def test_solve_counter(self, small_trace, assignment):
        p = MilpPolicy()
        Simulation(small_trace, assignment, p).run()
        assert p.n_solves == p.n_peak_minutes or p.n_solves <= p.n_peak_minutes
