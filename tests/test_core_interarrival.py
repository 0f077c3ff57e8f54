"""Tests for repro.core.interarrival."""

import numpy as np
import pytest

from repro.core.interarrival import InterArrivalEstimator


def feed(est, fid, minutes):
    for m in minutes:
        est.observe(fid, m)


class TestObservation:
    def test_no_history_gives_zeros(self):
        est = InterArrivalEstimator(1)
        np.testing.assert_array_equal(est.probabilities(0, 10), np.zeros(10))

    def test_single_arrival_no_gap(self):
        est = InterArrivalEstimator(1)
        est.observe(0, 5)
        assert est.n_gaps(0) == (0, 0)
        assert est.last_arrival(0) == 5

    def test_same_minute_not_a_new_arrival(self):
        est = InterArrivalEstimator(1)
        est.observe(0, 5)
        est.observe(0, 5)
        assert est.n_gaps(0) == (0, 0)

    def test_out_of_order_rejected(self):
        est = InterArrivalEstimator(1)
        est.observe(0, 10)
        with pytest.raises(ValueError, match="time order"):
            est.observe(0, 9)

    def test_bad_fid(self):
        est = InterArrivalEstimator(2)
        with pytest.raises(IndexError):
            est.observe(2, 0)


class TestExactProbabilities:
    def test_deterministic_timer(self):
        est = InterArrivalEstimator(1, mode="exact")
        feed(est, 0, range(0, 100, 5))
        p = est.probabilities(0, 99)
        assert p[4] == pytest.approx(1.0)  # gap 5
        assert p.sum() == pytest.approx(1.0)

    def test_paper_formula_all_normalization(self):
        # Paper: "inter-arrival time of 2 appears 10 times, probability of
        # 2 is 10 divided by the total number of inter-arrival times".
        est = InterArrivalEstimator(1, local_window=10_000, mode="exact",
                                    normalization="all")
        minutes = []
        t = 0
        for _ in range(10):
            t += 2
            minutes.append(t)
        for _ in range(10):
            t += 30  # outside the window
            minutes.append(t)
        feed(est, 0, [0] + minutes)
        p = est.probabilities(0, t)
        assert p[1] == pytest.approx(10 / 20)

    def test_window_normalization_conditions_on_window(self):
        est = InterArrivalEstimator(1, local_window=10_000, mode="exact",
                                    normalization="window")
        t = 0
        minutes = [0]
        for _ in range(10):
            t += 2
            minutes.append(t)
        for _ in range(10):
            t += 30
            minutes.append(t)
        feed(est, 0, minutes)
        p = est.probabilities(0, t)
        assert p[1] == pytest.approx(1.0)  # all in-window gaps equal 2

    def test_average_of_two_periods(self):
        # Lifetime says mostly gap 2, the recent local window says gap 4.
        est = InterArrivalEstimator(1, local_window=20, mode="exact")
        t = 0
        minutes = [0]
        for _ in range(30):
            t += 2
            minutes.append(t)
        for _ in range(10):  # 40 minutes of gap-4 arrivals: fills the window
            t += 4
            minutes.append(t)
        feed(est, 0, minutes)
        p = est.probabilities(0, t)
        # Recent window holds only gap-4 arrivals; lifetime favours gap 2.
        # The average of the two periods must rank gap 4 above gap 2.
        assert p[3] > p[1]
        assert p[1] > 0  # lifetime still contributes gap-2 mass

    def test_local_window_eviction(self):
        est = InterArrivalEstimator(1, local_window=10, mode="exact")
        feed(est, 0, [0, 2, 4])
        est.probabilities(0, 100)  # far in the future: recent evicted
        assert est.n_gaps(0) == (2, 0)


class TestModes:
    @pytest.fixture()
    def est_pair(self):
        out = {}
        for mode in ("exact", "survival", "cumulative"):
            e = InterArrivalEstimator(1, mode=mode)
            feed(e, 0, [0, 3, 6, 9, 12])
            out[mode] = e
        return out

    def test_survival_monotone_nonincreasing(self, est_pair):
        p = est_pair["survival"].probabilities(0, 12)
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert p[0] == pytest.approx(1.0)

    def test_cumulative_monotone_nondecreasing(self, est_pair):
        p = est_pair["cumulative"].probabilities(0, 12)
        assert all(a <= b for a, b in zip(p, p[1:]))

    def test_modes_agree_at_mass_location(self, est_pair):
        for mode, est in est_pair.items():
            p = est.probabilities(0, 12)
            assert p[2] > 0, mode  # gap 3

    def test_all_probabilities_in_unit_interval(self, est_pair):
        for est in est_pair.values():
            p = est.probabilities(0, 12)
            assert np.all(p >= 0) and np.all(p <= 1)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            InterArrivalEstimator(1, mode="bayes")

    def test_invalid_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            InterArrivalEstimator(1, normalization="l2")


class TestInvocationProbability:
    def test_ip_uses_exact_minute(self):
        est = InterArrivalEstimator(1, mode="survival")
        feed(est, 0, range(0, 50, 5))
        # Current offset 5 from last arrival at 45: exact P(gap=5)=1.
        assert est.invocation_probability(0, 50) == pytest.approx(1.0)
        # Offset 3: exact probability is 0 even though survival is 1.
        assert est.invocation_probability(0, 48) == 0.0

    def test_ip_boundaries(self):
        est = InterArrivalEstimator(1)
        assert est.invocation_probability(0, 100) == 0.0  # never seen
        est.observe(0, 100)
        assert est.invocation_probability(0, 100) == 1.0  # arriving now
        assert est.invocation_probability(0, 150) == 0.0  # beyond window


class TestQueryCaching:
    """The version-dirty caches must be invisible except in identity."""

    def test_repeated_query_returns_cached_array(self):
        est = InterArrivalEstimator(1, mode="survival")
        feed(est, 0, range(0, 30, 3))
        a = est.probabilities(0, 30)
        b = est.probabilities(0, 30)
        assert a is b
        ea = est.exact_probabilities(0, 30)
        eb = est.exact_probabilities(0, 30)
        assert ea is eb

    def test_new_arrival_invalidates(self):
        est = InterArrivalEstimator(1, mode="survival")
        feed(est, 0, range(0, 30, 3))
        before = est.probabilities(0, 30).copy()
        est.observe(0, 35)  # gap of 5 shifts the distribution
        after = est.probabilities(0, 35)
        assert not np.array_equal(before, after)

    def test_eviction_invalidates(self):
        est = InterArrivalEstimator(1, local_window=10, mode="exact")
        feed(est, 0, [0, 2, 4, 9])
        with_recent = est.probabilities(0, 9).copy()
        # By minute 30 every recent gap has aged out of the local window;
        # the estimate falls back to the lifetime distribution alone.
        aged = est.probabilities(0, 30)
        np.testing.assert_allclose(aged, with_recent)  # same data source here
        est2 = InterArrivalEstimator(1, local_window=10, mode="exact")
        feed(est2, 0, [0, 2, 4, 9])
        assert est2.n_gaps(0)[1] == 3
        est2.probabilities(0, 30)
        assert est2.n_gaps(0)[1] == 0  # eviction ran despite warm cache

    def test_cached_matches_fresh_estimator(self):
        # Query-heavy usage must give the same numbers as a fresh estimator
        # queried once (caching changes work done, never values).
        rng = np.random.default_rng(7)
        minutes = np.cumsum(rng.integers(1, 8, size=40))
        hot = InterArrivalEstimator(1, mode="hazard")
        cold = InterArrivalEstimator(1, mode="hazard")
        for m in minutes:
            hot.observe(0, int(m))
            cold.observe(0, int(m))
            hot.probabilities(0, int(m))  # extra queries warm the cache
            hot.exact_probabilities(0, int(m))
        now = int(minutes[-1]) + 1
        np.testing.assert_array_equal(
            hot.probabilities(0, now), cold.probabilities(0, now)
        )
        np.testing.assert_array_equal(
            hot.exact_probabilities(0, now), cold.exact_probabilities(0, now)
        )


def _numpy_reference(arrivals, now, window, local_window, normalization, mode):
    """The array formulas the float-list estimator replaced, recomputed
    from scratch from the arrival stream: every mode must equal them bit
    for bit."""
    gaps = [(m, m - prev) for prev, m in zip(arrivals, arrivals[1:])]
    recent = [(m, g) for m, g in gaps if m >= now - local_window]
    lifetime_counts = np.zeros(window, dtype=np.int64)
    recent_counts = np.zeros(window, dtype=np.int64)
    for _, g in gaps:
        if g <= window:
            lifetime_counts[g - 1] += 1
    for _, g in recent:
        if g <= window:
            recent_counts[g - 1] += 1
    if normalization == "window":
        lifetime_denom = int(lifetime_counts.sum())
        recent_denom = int(recent_counts.sum())
    else:
        lifetime_denom = len(gaps)
        recent_denom = len(recent)
    lifetime = (
        lifetime_counts / lifetime_denom if lifetime_denom else np.zeros(window)
    )
    recent_p = recent_counts / recent_denom if recent_denom else np.zeros(window)
    if lifetime_denom and recent_denom:
        exact = (lifetime + recent_p) / 2.0
    else:
        exact = lifetime if lifetime_denom else recent_p
    if mode == "exact":
        return exact, exact
    if mode == "cumulative":
        return exact, np.minimum(np.cumsum(exact), 1.0)
    survival = np.minimum(np.cumsum(exact[::-1])[::-1], 1.0)
    if mode == "survival":
        return exact, survival
    with np.errstate(divide="ignore", invalid="ignore"):
        hazard = np.where(survival > 0, exact / survival, 0.0)
    return exact, np.minimum(hazard, 1.0)


class TestFloatListBitIdentity:
    """The Python-float estimator against an in-test copy of the numpy
    formulas, with exact equality, on streams that exercise local-window
    eviction and gaps longer than the keep-alive window."""

    @pytest.mark.parametrize("normalization", ["all", "window"])
    @pytest.mark.parametrize("mode", ["exact", "survival", "cumulative", "hazard"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_numpy_formulas(self, mode, normalization, seed):
        rng = np.random.default_rng(seed)
        window, local_window = 10, 30
        est = InterArrivalEstimator(
            1, window=window, local_window=local_window,
            normalization=normalization, mode=mode,
        )
        arrivals: list[int] = []
        t = int(rng.integers(0, 5))
        for _ in range(120):
            # Mostly in-window gaps, some beyond the window, some beyond
            # the local window (which evicts the whole recent period).
            kind = rng.random()
            if kind < 0.7:
                t += int(rng.integers(1, window + 1))
            elif kind < 0.9:
                t += int(rng.integers(window + 1, local_window))
            else:
                t += int(rng.integers(local_window + 1, 3 * local_window))
            est.observe(0, t)
            arrivals.append(t)
            for now in (t, t + int(rng.integers(0, 2 * local_window))):
                exact, shaped = _numpy_reference(
                    arrivals, now, window, local_window, normalization, mode
                )
                assert est.probability_values(0, now) == shaped.tolist()
                assert est.exact_values(0, now) == exact.tolist()
                assert est.probabilities(0, now).tolist() == shaped.tolist()
                assert est.exact_probabilities(0, now).tolist() == exact.tolist()
                offset = now - t
                ip = est.invocation_probability(0, now)
                if offset == 0:
                    assert ip == 1.0
                elif offset > window:
                    assert ip == 0.0
                else:
                    assert ip == float(exact[offset - 1])
            # Later queries never move backwards in time.
            t = max(t, now)

    def test_public_arrays_are_read_only(self):
        est = InterArrivalEstimator(1, mode="survival")
        feed(est, 0, range(0, 30, 3))
        for arr in (est.probabilities(0, 30), est.exact_probabilities(0, 30)):
            with pytest.raises(ValueError):
                arr[0] = 0.5
