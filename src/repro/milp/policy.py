"""The MILP keep-alive policy: PULSE with Algorithm 2 replaced by a solver.

Identical to :class:`~repro.core.pulse.PulsePolicy` in every respect —
same inter-arrival estimator, threshold mapping, peak detector and
priority structure — except that peak flattening solves the global
selection MILP (scipy/HiGHS) instead of running the greedy downgrade
loop. This isolates exactly the comparison Figure 9 makes: per-decision
overhead and end-to-end accuracy of the two optimizers.

The paper's observation that "MILP tends to favor lower-quality models
due to lack of iterative adaptability" falls out of the formulation: a
family's lowest variant carries its full accuracy as utility while higher
variants only carry deltas, so joint maximization under a memory budget
drives every flagged function straight to its cheapest level, whereas the
greedy stops downgrading the moment the peak flattens.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.core.pulse import PulseConfig, PulsePolicy
from repro.milp.formulation import MilpProblem, build_peak_milp
from repro.runtime.schedule import KeepAliveSchedule

__all__ = ["MilpPolicy", "solve_milp"]


def solve_milp(problem: MilpProblem) -> dict[int, int | None]:
    """Solve a peak MILP; returns {function_id: chosen level or None=drop}.

    Raises ``RuntimeError`` when HiGHS reports failure on a feasible
    problem (protected functions make infeasibility possible only if the
    budget is below their combined lowest-variant memory; in that case
    the budget constraint is relaxed to that floor).
    """
    n = problem.n_variables
    if n == 0:
        return {}
    # Feasibility floor: protected functions must keep >= lowest variant.
    floor = sum(
        min(problem.memory[i] for i in problem.function_rows[fid])
        for fid in problem.protected
    )
    budget = max(problem.budget, floor)

    rows, cols, vals = [], [], []
    b_lo, b_hi = [], []
    row = 0
    for fid, idxs in sorted(problem.function_rows.items()):
        for i in idxs:
            rows.append(row)
            cols.append(i)
            vals.append(1.0)
        if fid in problem.protected:
            b_lo.append(1.0)
        else:
            b_lo.append(0.0)
        b_hi.append(1.0)
        row += 1
    # Memory budget row.
    for i in range(n):
        rows.append(row)
        cols.append(i)
        vals.append(float(problem.memory[i]))
    b_lo.append(0.0)
    b_hi.append(budget)
    row += 1

    a = csr_matrix((vals, (rows, cols)), shape=(row, n))
    constraints = LinearConstraint(a, np.array(b_lo), np.array(b_hi))
    res = milp(
        c=problem.c,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"MILP solve failed: {res.message}")
    chosen: dict[int, int | None] = {}
    for fid, idxs in problem.function_rows.items():
        chosen[fid] = None
        for i in idxs:
            if res.x[i] > 0.5:
                chosen[fid] = problem.options[i][1]
                break
    return chosen


class MilpPolicy(PulsePolicy):
    """PULSE with the global stage solved as an MILP."""

    def __init__(self, config: PulseConfig | None = None):
        super().__init__(config)
        self.name = "MILP"
        self.n_solves = 0

    def review_minute(self, minute: int, schedule: KeepAliveSchedule) -> None:
        assert self._gopt is not None and self._fopt is not None
        gopt = self._gopt
        if not self.config.enable_global:
            gopt.detector.observe(schedule.memory_at(minute))
            return
        obs = self.obs
        if obs.spans_enabled:
            t0 = perf_counter()
            demand = schedule.memory_at(minute)
            prior = gopt.detector.prior_memory()
            is_peak = gopt.detector.is_peak(demand, prior)
            obs.spans.add("peak-detect", perf_counter() - t0)
        else:
            demand = schedule.memory_at(minute)
            prior = gopt.detector.prior_memory()
            is_peak = gopt.detector.is_peak(demand, prior)
        current = demand
        if is_peak:
            gopt.n_peak_minutes += 1
            alive = schedule.alive_at(minute)
            if alive:
                target = gopt.detector.flatten_target(prior)
                if obs.decisions_enabled:
                    obs.record_peak(minute, demand, prior, target)
                t0 = perf_counter() if obs.spans_enabled else 0.0
                normalized = gopt.priority.normalized()
                problem = build_peak_milp(
                    alive=alive,
                    assignment=self.assignment,
                    priorities={fid: float(normalized[fid]) for fid in alive},
                    invocation_probabilities={
                        fid: self._fopt.invocation_probability(fid, minute)
                        for fid in alive
                    },
                    droppable={
                        fid: self._fopt.max_remaining_probability(fid, minute) == 0.0
                        for fid in alive
                    },
                    budget=target,
                )
                chosen = solve_milp(problem)
                self.n_solves += 1
                self._apply(chosen, alive, minute, schedule)
                current = schedule.memory_at(minute)
                if obs.spans_enabled:
                    # MILP build + solve + apply is the analogue of the
                    # greedy's downgrade selection (Figure 9's comparison).
                    obs.spans.add("downgrade-select", perf_counter() - t0)
        gopt.detector.observe(demand, current)

    def _apply(
        self,
        chosen: dict[int, int | None],
        alive: dict,
        minute: int,
        schedule: KeepAliveSchedule,
    ) -> None:
        """Realize the solver's selection as schedule downgrades."""
        assert self._gopt is not None
        obs = self.obs
        record = obs.decisions_enabled
        for fid, level in chosen.items():
            current_level = alive[fid].level
            family = self.assignment[fid]
            if level is None:
                steps = current_level + 1  # down through lowest, then drop
            else:
                steps = current_level - level
            for _ in range(steps):
                schedule.downgrade(fid, minute, family, allow_drop=(level is None))
                self._gopt.priority.record_downgrade(fid)
                self._gopt.n_downgrades += 1
                if record:
                    frm = schedule.alive_variant(fid, minute)
                    # The entry at ``minute`` now holds the post-step
                    # variant; reconstruct the pre-step name from it
                    # (one level up, or the dropped variant's name).
                    if frm is not None:
                        new_name = frm.name
                        from_name = family.variant(frm.level + 1).name
                    else:
                        new_name = None
                        from_name = family.lowest.name
                    obs.record_downgrade(minute, fid, from_name, new_name)
