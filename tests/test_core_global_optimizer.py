"""Tests for repro.core.global_optimizer — Algorithm 2."""

import json
from collections import Counter

import numpy as np
import pytest

from repro.api import make_policy, simulate
from repro.core.pulse import PulseConfig
from repro.core.utility import UtilityWeights, components_for
from repro.experiments.assignments import sample_assignments
from repro.obs.session import ObservabilityConfig
from repro.core.function_optimizer import FunctionCentricOptimizer
from repro.core.global_optimizer import GlobalOptimizer
from repro.core.interarrival import InterArrivalEstimator
from repro.core.peak import PeakDetector
from repro.core.priority import PriorityStructure
from repro.core.thresholds import TechniqueT1
from repro.runtime.schedule import KeepAliveSchedule


def make_gopt(n_functions=3, threshold=0.10, window=10):
    est = InterArrivalEstimator(n_functions, window=window, mode="exact")
    fopt = FunctionCentricOptimizer(est, TechniqueT1())
    return GlobalOptimizer(
        detector=PeakDetector(memory_threshold=threshold),
        priority=PriorityStructure(n_functions),
        function_optimizer=fopt,
    )


class TestReview:
    def test_no_peak_no_downgrades(self, gpt, bert):
        gopt = make_gopt()
        sched = KeepAliveSchedule(3)
        assignment = {0: gpt, 1: bert, 2: gpt}
        sched.set_plan(0, 0, [gpt.lowest] * 10)
        gopt.detector.observe(sched.memory_at(1))
        assert gopt.review(2, sched, assignment) == 0
        assert gopt.n_peak_minutes == 0

    def test_peak_triggers_downgrades(self, gpt, bert):
        gopt = make_gopt()
        sched = KeepAliveSchedule(3)
        assignment = {0: gpt, 1: bert, 2: gpt}
        # Establish a small prior, then spike with two GPT-Large plans.
        sched.set_plan(1, 0, [bert.lowest] * 10)
        gopt.detector.observe(sched.memory_at(1))
        sched.set_plan(0, 1, [gpt.highest] * 10)
        sched.set_plan(2, 1, [gpt.highest] * 10)
        n = gopt.review(2, sched, assignment)
        assert n > 0
        assert gopt.n_peak_minutes == 1
        # Memory must have been brought down toward the target.
        target = gopt.detector.flatten_target(
            bert.lowest.memory_mb
        )
        assert sched.memory_at(2) <= target or n > 0

    def test_victim_is_lowest_utility(self, gpt, bert):
        gopt = make_gopt(n_functions=2)
        sched = KeepAliveSchedule(2)
        assignment = {0: gpt, 1: bert}
        # Give fn1 (BERT) high priority so fn0 (GPT) is the victim.
        for _ in range(3):
            gopt.priority.record_downgrade(1)
        sched.set_plan(0, 0, [gpt.highest] * 10)
        sched.set_plan(1, 0, [bert.highest] * 10)
        gopt.detector.observe(100.0)  # tiny prior: everything is a peak
        gopt.review(1, sched, assignment)
        assert gopt.priority.count(0) > 0

    def test_downgraded_model_gets_priority_point(self, gpt, bert):
        gopt = make_gopt(n_functions=2)
        sched = KeepAliveSchedule(2)
        assignment = {0: gpt, 1: bert}
        sched.set_plan(0, 0, [gpt.highest] * 10)
        gopt.detector.observe(10.0)
        before = gopt.priority.counts.sum()
        n = gopt.review(1, sched, assignment)
        assert gopt.priority.counts.sum() == before + n

    def test_protected_lowest_variants_not_dropped(self, gpt, bert):
        gopt = make_gopt(n_functions=2)
        sched = KeepAliveSchedule(2)
        assignment = {0: gpt, 1: bert}
        # Both functions have arrival history giving nonzero window mass
        # (interleaved: the estimator requires global time order).
        for m in range(0, 50, 5):
            gopt.function_optimizer.estimator.observe(0, m)
            gopt.function_optimizer.estimator.observe(1, m)
        sched.set_plan(0, 45, [gpt.lowest] * 10)
        sched.set_plan(1, 45, [bert.lowest] * 10)
        gopt.detector.observe(1.0)  # absurdly low prior: unreachable target
        gopt.review(46, sched, assignment)
        # Peak cannot be flattened, but nothing was shredded.
        assert sched.alive_variant(0, 46) == gpt.lowest
        assert sched.alive_variant(1, 46) == bert.lowest

    def test_droppable_zero_probability_model_is_dropped(self, gpt, bert):
        gopt = make_gopt(n_functions=2)
        sched = KeepAliveSchedule(2)
        assignment = {0: gpt, 1: bert}
        # fn0 never observed: zero probability everywhere -> droppable.
        sched.set_plan(0, 0, [gpt.lowest] * 10)
        gopt.detector.observe(1.0)
        gopt.review(1, sched, assignment)
        assert sched.alive_variant(0, 1) is None

    def test_detector_fed_every_minute(self, gpt):
        gopt = make_gopt(n_functions=1)
        sched = KeepAliveSchedule(1)
        for t in range(5):
            gopt.review(t, sched, {0: gpt})
        assert gopt.detector.minutes_observed == 5

    def test_flatten_loop_terminates_on_unreachable_target(self, gpt):
        gopt = make_gopt(n_functions=1)
        sched = KeepAliveSchedule(1)
        # History so the model is protected (cannot flatten to target).
        for m in range(0, 30, 3):
            gopt.function_optimizer.estimator.observe(0, m)
        sched.set_plan(0, 27, [gpt.highest] * 10)
        gopt.detector.observe(0.5)
        gopt.review(28, sched, {0: gpt})  # must return, not spin
        assert sched.alive_variant(0, 28) == gpt.lowest


def _rescan_lowest_utility(self, alive, minute, assignment, collect=None,
                           terms=None):
    """The from-scratch victim scan: every term recomputed through the
    function optimizer, ``components_for`` and ``UtilityWeights.apply``
    on every call, ignoring the review's memo."""
    normalized = self.priority.normalized()
    best_fid, best_uv = None, float("inf")
    for fid in sorted(alive):
        variant = alive[fid]
        ip = self.function_optimizer.invocation_probability(fid, minute)
        if variant.level == 0 and (
            self.function_optimizer.max_remaining_probability(fid, minute) > 0.0
        ):
            if collect is not None:
                collect.append(
                    {"fid": fid, "variant": variant.name, "protected": True}
                )
            continue
        comp = components_for(
            family=assignment[fid],
            kept_variant=variant,
            priority=float(normalized[fid]),
            invocation_probability=min(ip, 1.0),
        )
        value = self.weights.apply(comp)
        if collect is not None:
            collect.append({
                "fid": fid,
                "variant": variant.name,
                "Ai": comp.accuracy_improvement,
                "Pr": comp.priority,
                "Ip": comp.invocation_probability,
                "Uv": value,
            })
        if value < best_uv:
            best_uv, best_fid = value, fid
    return best_fid


class TestMemoizedReview:
    """One review memoizes each fid's Ip and max-remaining probability and
    scores in plain floats; victims and decision-trace rows must equal a
    from-scratch rescan's."""

    def _run(self, trace, assignment, config):
        result = simulate(
            trace, assignment=assignment,
            policy=make_policy("pulse", config=config),
            engine="reference", observe=ObservabilityConfig(),
        )
        downgrades = [r for r in result.obs.records if r["kind"] == "downgrade"]
        return result, downgrades

    @pytest.mark.parametrize(
        "config",
        [
            PulseConfig(memory_threshold=0.05),
            PulseConfig(memory_threshold=0.02, probability_mode="hazard"),
            PulseConfig(
                memory_threshold=0.05, threshold_scheme="T2",
                utility_weights=UtilityWeights(0.5, 2.0, 1.0),
            ),
        ],
        ids=["T1", "hazard", "T2-weighted"],
    )
    def test_matches_from_scratch_rescan(self, small_trace, zoo, config,
                                         monkeypatch):
        assignment = sample_assignments(
            small_trace.n_functions, 1, zoo, seed=2024
        )[0]
        memo, memo_downgrades = self._run(small_trace, assignment, config)
        monkeypatch.setattr(
            GlobalOptimizer, "_lowest_utility", _rescan_lowest_utility
        )
        scan, scan_downgrades = self._run(small_trace, assignment, config)
        # Reviews with several victims and several candidates each, so
        # memoized terms are reused within a review.
        per_minute = Counter(r["t"] for r in memo_downgrades)
        assert sum(n > 1 for n in per_minute.values()) > 10
        assert any(len(r["candidates"]) > 3 for r in memo_downgrades)
        # One JSON line per record, so a mismatch reports the first
        # differing record instead of diffing the whole trace.
        assert [json.dumps(r) for r in memo.obs.records] == [
            json.dumps(r) for r in scan.obs.records
        ]
        for key in ("keepalive_cost_usd", "total_service_time_s",
                    "mean_accuracy", "n_cold"):
            assert getattr(memo, key) == getattr(scan, key)
        np.testing.assert_array_equal(
            memo.memory_series_mb, scan.memory_series_mb
        )

    def test_out_of_range_term_still_raises(self, gpt):
        gopt = make_gopt(n_functions=1)
        sched = KeepAliveSchedule(1)
        sched.set_plan(0, 0, [gpt.highest] * 10)
        gopt.detector.observe(10.0)
        gopt.function_optimizer.invocation_probability = lambda fid, m: -0.25
        with pytest.raises(ValueError, match=r"Ip must be in \[0, 1\]"):
            gopt.review(1, sched, {0: gpt})
