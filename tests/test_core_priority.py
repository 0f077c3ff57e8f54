"""Tests for repro.core.priority — Eq. 1 and the downgrade counters."""

import numpy as np
import pytest

from repro.core.priority import PriorityStructure, normalize


class TestNormalize:
    def test_basic_minmax(self):
        out = normalize(np.array([0.0, 5.0, 10.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_equal_values_degenerate_branch(self):
        # Eq. 1: when Xmax == Xmin the result is X - Xmin (all zeros).
        out = normalize(np.array([4.0, 4.0, 4.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0])

    def test_empty(self):
        assert normalize(np.array([])).size == 0

    def test_range_always_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 100, size=8)
            out = normalize(x)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_does_not_mutate_input(self):
        x = np.array([1.0, 2.0])
        normalize(x)
        np.testing.assert_array_equal(x, [1.0, 2.0])


class TestPriorityStructure:
    def test_starts_all_zero(self):
        ps = PriorityStructure(4)
        np.testing.assert_array_equal(ps.counts, [0, 0, 0, 0])
        np.testing.assert_array_equal(ps.normalized(), [0, 0, 0, 0])

    def test_record_and_count(self):
        ps = PriorityStructure(3)
        ps.record_downgrade(1)
        ps.record_downgrade(1)
        ps.record_downgrade(2)
        assert ps.count(1) == 2
        assert ps.count(0) == 0

    def test_most_downgraded_gets_priority_one(self):
        ps = PriorityStructure(3)
        for _ in range(5):
            ps.record_downgrade(0)
        ps.record_downgrade(2)
        n = ps.normalized()
        assert n[0] == pytest.approx(1.0)
        assert n[1] == pytest.approx(0.0)
        assert 0.0 < n[2] < 1.0

    def test_priority_accessor(self):
        ps = PriorityStructure(2)
        ps.record_downgrade(0)
        assert ps.priority(0) == pytest.approx(1.0)
        assert ps.priority(1) == pytest.approx(0.0)

    def test_counts_returns_copy(self):
        ps = PriorityStructure(2)
        ps.counts[0] = 99
        assert ps.count(0) == 0

    def test_bounds(self):
        ps = PriorityStructure(2)
        with pytest.raises(IndexError):
            ps.record_downgrade(2)
        with pytest.raises(ValueError):
            PriorityStructure(0)

    def test_record_downgrades_matches_repeated_calls(self):
        one, many = PriorityStructure(5), PriorityStructure(5)
        fids, n = np.array([4, 0, 2]), np.array([3, 1, 2])
        for fid, k in zip(fids.tolist(), n.tolist()):
            for _ in range(k):
                one.record_downgrade(fid)
        many.record_downgrades(fids, n)
        np.testing.assert_array_equal(many.counts, one.counts)
        many.record_downgrades(np.array([], dtype=np.int64), np.array([]))
        np.testing.assert_array_equal(many.counts, one.counts)

    @pytest.mark.parametrize("bad", [5, -1])
    def test_record_downgrades_bounds(self, bad):
        ps = PriorityStructure(5)
        with pytest.raises(IndexError, match="out of range 0..4"):
            ps.record_downgrades(np.array([1, bad]), np.array([1, 1]))
        np.testing.assert_array_equal(ps.counts, np.zeros(5))  # nothing applied
