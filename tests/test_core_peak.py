"""Tests for repro.core.peak — Algorithm 1."""

import math
import pickle
import random

import pytest

from repro.core.peak import PeakDetector


class TestIsPeak:
    def test_growth_beyond_threshold_is_peak(self):
        d = PeakDetector(memory_threshold=0.10)
        d.observe(1000.0)
        assert d.is_peak(1101.0)
        assert not d.is_peak(1100.0)

    def test_no_history_never_peak(self):
        d = PeakDetector()
        assert d.prior_memory() == math.inf
        assert not d.is_peak(1e9)

    def test_negative_memory_rejected(self):
        d = PeakDetector()
        with pytest.raises(ValueError):
            d.is_peak(-1.0)
        with pytest.raises(ValueError):
            d.observe(-1.0)


class TestPriorMemory:
    def test_continuous_activity_uses_previous_minute(self):
        d = PeakDetector(local_window=5)
        for m in (100.0, 200.0, 300.0):
            d.observe(m)
        # prev=300 beats the window average (200).
        assert d.prior_memory() == pytest.approx(300.0)

    def test_window_average_floors_the_prior(self):
        # Committed memory dropped after flattening; the demand average
        # keeps the prior anchored (no ratchet).
        d = PeakDetector(local_window=4)
        for _ in range(4):
            d.observe(1000.0)
        d.observe(demand_mb=1000.0, committed_mb=10.0)
        assert d.prior_memory() == pytest.approx(1000.0)

    def test_inactivity_uses_window_average_when_mature(self):
        d = PeakDetector(local_window=3)
        for m in (300.0, 300.0, 300.0, 300.0, 150.0, 0.0):
            d.observe(m)
        # prev == 0; system ran >= 2*l_window; window avg = (150+0+300)/3.
        assert d.prior_memory() == pytest.approx((300.0 + 150.0 + 0.0) / 3)

    def test_inactivity_falls_back_to_last_nonzero(self):
        d = PeakDetector(local_window=10)
        d.observe(500.0)
        d.observe(0.0)
        d.observe(0.0)
        # Not mature (< 2 * local_window): use last non-zero value.
        assert d.prior_memory() == pytest.approx(500.0)

    def test_all_zero_history_gives_infinity(self):
        d = PeakDetector()
        d.observe(0.0)
        d.observe(0.0)
        assert d.prior_memory() == math.inf
        assert not d.is_peak(1e6)

    def test_long_inactivity_with_zero_average(self):
        d = PeakDetector(local_window=2)
        d.observe(800.0)
        for _ in range(6):
            d.observe(0.0)
        # Window average is 0 -> fall through to last non-zero.
        assert d.prior_memory() == pytest.approx(800.0)


class TestFlattenTarget:
    def test_target_is_threshold_above_prior(self):
        d = PeakDetector(memory_threshold=0.15)
        d.observe(200.0)
        assert d.flatten_target() == pytest.approx(230.0)

    def test_target_infinite_without_history(self):
        assert PeakDetector().flatten_target() == math.inf

    @pytest.mark.parametrize("threshold", [0.05, 0.10, 0.15])
    def test_threshold_parameter(self, threshold):
        d = PeakDetector(memory_threshold=threshold)
        d.observe(1000.0)
        boundary = 1000.0 * (1 + threshold)
        assert not d.is_peak(boundary)
        assert d.is_peak(boundary + 1.0)


class TestConstruction:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            PeakDetector(memory_threshold=0.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            PeakDetector(local_window=0)

    def test_minutes_observed(self):
        d = PeakDetector()
        d.observe(1.0)
        d.observe(2.0)
        assert d.minutes_observed == 2


class _ListDetector:
    """The unbounded-history Algorithm 1: every minute's demand kept in a
    list, the window sum updated by subtracting the element that leaves
    it. The bounded detector must reproduce it bit for bit."""

    def __init__(self, memory_threshold, local_window):
        self.memory_threshold = memory_threshold
        self.local_window = local_window
        self.demand: list[float] = []
        self.prev_committed = None
        self.last_nonzero = None
        self.window_sum = 0.0

    def observe(self, demand_mb, committed_mb):
        self.demand.append(demand_mb)
        self.window_sum += demand_mb
        if len(self.demand) > self.local_window:
            self.window_sum -= self.demand[-self.local_window - 1]
        if demand_mb > 0:
            self.last_nonzero = demand_mb
        self.prev_committed = committed_mb

    def window_average(self):
        n = min(len(self.demand), self.local_window)
        return self.window_sum / n if n else 0.0

    def prior_memory(self):
        if not self.demand:
            return math.inf
        prev = self.prev_committed
        if prev > 0:
            return max(prev, self.window_average())
        if len(self.demand) >= 2 * self.local_window:
            avg = self.window_average()
            if avg > 0:
                return avg
        if self.last_nonzero is not None:
            return self.last_nonzero
        return math.inf


class TestBoundedHistory:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("local_window", [1, 5, 60])
    def test_matches_unbounded_list_detector(self, seed, local_window):
        rng = random.Random(seed)
        ours = PeakDetector(memory_threshold=0.1, local_window=local_window)
        ref = _ListDetector(0.1, local_window)
        t = 0
        while t < 1500:
            if rng.random() < 0.1:
                gap = rng.randint(1, 3 * local_window)  # an idle stretch
                stream = [0.0] * gap
            else:
                stream = [rng.uniform(0.0, 5000.0) for _ in range(rng.randint(1, 40))]
            for demand in stream:
                committed = demand * rng.choice([1.0, 1.0, 0.7, 0.0])
                prior = ours.prior_memory()
                assert prior == ref.prior_memory(), t
                assert ours.is_peak(demand, prior) == (
                    not math.isinf(prior) and demand > prior * 1.1
                )
                ours.observe(demand, committed)
                ref.observe(demand, committed)
                assert ours.minutes_observed == len(ref.demand)
                t += 1

    def test_pickled_size_does_not_grow_with_the_horizon(self):
        d = PeakDetector(local_window=60)
        sizes = {}
        for t in range(20_000):
            d.observe(float(100 + t % 37), float(90 + t % 37))
            if t + 1 in (100, 20_000):
                sizes[t + 1] = len(pickle.dumps(d))
        assert d.minutes_observed == 20_000
        # Only the minute count's integer encoding may widen (a few bytes);
        # a per-minute history would add ~9 bytes per minute.
        assert sizes[20_000] <= sizes[100] + 8
