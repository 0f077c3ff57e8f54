"""Tests for repro.core.thresholds — T1/T2 band mapping."""

import math
import random

import pytest

from repro.core.thresholds import (
    MonotoneScheme,
    TechniqueT1,
    TechniqueT2,
    ThresholdScheme,
    get_scheme,
)


class TestT1:
    @pytest.fixture()
    def t1(self):
        return TechniqueT1()

    def test_zero_probability_keeps_lowest(self, t1):
        # §V: at least the low-quality container stays alive.
        assert t1.select_level(0.0, 3) == 0

    def test_bands_for_three_variants(self, t1):
        assert t1.select_level(0.2, 3) == 0
        assert t1.select_level(0.5, 3) == 1
        assert t1.select_level(0.9, 3) == 2

    def test_thresholds_at_i_over_n(self, t1):
        # p in [i/N, (i+1)/N) selects level i.
        assert t1.select_level(1 / 3, 3) == 1
        assert t1.select_level(2 / 3, 3) == 2

    def test_probability_one_selects_highest(self, t1):
        assert t1.select_level(1.0, 3) == 2
        assert t1.select_level(1.0, 2) == 1

    def test_single_variant(self, t1):
        assert t1.select_level(0.0, 1) == 0
        assert t1.select_level(1.0, 1) == 0

    def test_out_of_range_probability(self, t1):
        with pytest.raises(ValueError):
            t1.select_level(1.1, 3)
        with pytest.raises(ValueError):
            t1.select_level(-0.1, 3)

    def test_bad_variant_count(self, t1):
        with pytest.raises(ValueError):
            t1.select_level(0.5, 0)


class TestT2:
    @pytest.fixture()
    def t2(self):
        return TechniqueT2()

    def test_zero_reserved_for_lowest(self, t2):
        assert t2.select_level(0.0, 3) == 0

    def test_positive_probability_skips_lowest(self, t2):
        # (0, 1] is split among the N-1 upper variants.
        assert t2.select_level(0.01, 3) == 1
        assert t2.select_level(0.4, 3) == 1
        assert t2.select_level(0.6, 3) == 2
        assert t2.select_level(1.0, 3) == 2

    def test_two_variants(self, t2):
        assert t2.select_level(0.0, 2) == 0
        assert t2.select_level(0.3, 2) == 1
        assert t2.select_level(1.0, 2) == 1

    def test_single_variant(self, t2):
        assert t2.select_level(0.7, 1) == 0


class TestMonotoneScheme:
    def test_custom_cuts(self):
        s = MonotoneScheme([0.1, 0.8])
        assert s.select_level(0.05, 3) == 0
        assert s.select_level(0.5, 3) == 1
        assert s.select_level(0.9, 3) == 2

    def test_clamped_to_family_size(self):
        s = MonotoneScheme([0.1, 0.2, 0.3])
        assert s.select_level(0.9, 2) == 1

    def test_rejects_unsorted_cuts(self):
        with pytest.raises(ValueError, match="increasing"):
            MonotoneScheme([0.5, 0.2])

    def test_rejects_out_of_range_cuts(self):
        with pytest.raises(ValueError):
            MonotoneScheme([0.0, 0.5])


class TestGetScheme:
    def test_by_name(self):
        assert isinstance(get_scheme("T1"), TechniqueT1)
        assert isinstance(get_scheme("T2"), TechniqueT2)

    def test_instance_passthrough(self):
        s = MonotoneScheme([0.5])
        assert get_scheme(s) is s

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown"):
            get_scheme("T3")


class TestGeneralPrinciple:
    """The paper's robustness claim: any scheme works as long as higher
    probability maps to (weakly) higher accuracy."""

    @pytest.mark.parametrize(
        "scheme", [TechniqueT1(), TechniqueT2(), MonotoneScheme([0.05, 0.6])]
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_monotone_in_probability(self, scheme, n):
        probs = [i / 100 for i in range(101)]
        levels = [scheme.select_level(p, n) for p in probs]
        assert all(a <= b for a, b in zip(levels, levels[1:]))
        assert all(0 <= lv < n for lv in levels)


class _UserScheme(ThresholdScheme):
    """A scheme that defines only ``select_level``: the base class maps
    vectors element by element."""

    name = "user"

    def select_level(self, probability, n_variants):
        self._check(probability, n_variants)
        return 0 if probability < 0.5 else n_variants - 1


class _OutOfRangeScheme(ThresholdScheme):
    name = "broken"

    def select_level(self, probability, n_variants):
        return n_variants  # one past the top level


def _edge_probabilities():
    probs = {0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12}
    for n in range(1, 7):
        for k in range(n + 1):
            edge = k / n
            probs.update({edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)})
    rng = random.Random(11)
    probs.update(rng.random() for _ in range(200))
    return sorted(p for p in probs if 0.0 <= p <= 1.0)


class TestSelectLevels:
    """``select_levels`` equals ``select_level`` mapped per element, and
    raises the same ``ValueError``s."""

    SCHEMES = [
        TechniqueT1(), TechniqueT2(), MonotoneScheme([0.05, 0.6]),
        MonotoneScheme([1 / 3, 0.5, 2 / 3]), _UserScheme(),
    ]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_per_element(self, scheme, n):
        probs = _edge_probabilities()
        assert scheme.select_levels(probs, n) == [
            scheme.select_level(p, n) for p in probs
        ]
        # A plan-sized vector, as the optimizer passes it.
        plan = probs[::37][:10]
        assert scheme.select_levels(plan, n) == [
            scheme.select_level(p, n) for p in plan
        ]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "bad",
        [-0.1, 1.1, float("nan"), float("inf"), -float("inf")],
        ids=["neg", "above-one", "nan", "inf", "-inf"],
    )
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_bad_probability_raises(self, scheme, bad, where):
        probs = [0.5, 0.2, 0.9]
        probs[where] = bad
        with pytest.raises(ValueError, match="probability must be in"):
            scheme.select_levels(probs, 3)
        with pytest.raises(ValueError, match="probability must be in"):
            [scheme.select_level(p, 3) for p in probs]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_nan_and_infinity_together_raise(self, scheme):
        with pytest.raises(ValueError, match="probability must be in"):
            scheme.select_levels([float("inf"), 0.5, -float("inf")], 3)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [0, -1, 2.5, True])
    def test_bad_n_variants_raises(self, scheme, n):
        with pytest.raises(ValueError, match="n_variants"):
            scheme.select_levels([0.0, 0.5, 1.0], n)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_empty_vector(self, scheme):
        assert scheme.select_levels([], 3) == []

    def test_fallback_rejects_levels_outside_the_family(self):
        with pytest.raises(IndexError, match="level 3"):
            _OutOfRangeScheme().select_levels([0.5], 3)
