"""Tests for repro.models.variants."""

import dataclasses

import pytest

from repro.models.variants import ModelFamily, ModelVariant


def make_variant(level=0, family="Fam", accuracy=70.0, **kw):
    defaults = dict(
        family=family,
        name=f"{family}-v{level}",
        level=level,
        accuracy=accuracy,
        warm_service_time_s=1.0 + level,
        cold_service_time_s=5.0 + level,
        keepalive_cost_cents_per_hour=2.0 + level,
        memory_mb=100.0 * (level + 1),
    )
    defaults.update(kw)
    return ModelVariant(**defaults)


def make_family(accuracies=(70.0, 80.0, 90.0), name="Fam"):
    return ModelFamily(
        name=name,
        task="test",
        dataset="synthetic",
        variants=tuple(
            make_variant(level=i, family=name, accuracy=a)
            for i, a in enumerate(accuracies)
        ),
    )


class TestModelVariant:
    def test_accuracy_fraction(self):
        assert make_variant(accuracy=87.65).accuracy_fraction == pytest.approx(0.8765)

    def test_cold_start_penalty(self):
        v = make_variant()
        assert v.cold_start_penalty_s == pytest.approx(
            v.cold_service_time_s - v.warm_service_time_s
        )

    def test_rejects_cold_faster_than_warm(self):
        with pytest.raises(ValueError, match="cold_service_time_s"):
            make_variant(warm_service_time_s=5.0, cold_service_time_s=1.0)

    @pytest.mark.parametrize("acc", [-1.0, 100.1])
    def test_rejects_bad_accuracy(self, acc):
        with pytest.raises(ValueError, match="accuracy"):
            make_variant(accuracy=acc)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            make_variant(name="")

    def test_rejects_non_positive_memory(self):
        with pytest.raises(ValueError, match="memory_mb"):
            make_variant(memory_mb=0.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_variant().accuracy = 50.0


class TestModelFamily:
    def test_ordering_accessors(self):
        fam = make_family()
        assert fam.lowest.accuracy == 70.0
        assert fam.highest.accuracy == 90.0
        assert fam.n_variants == 3
        assert [v.level for v in fam] == [0, 1, 2]

    def test_variant_lookup(self):
        fam = make_family()
        assert fam.variant(1).accuracy == 80.0
        with pytest.raises(IndexError):
            fam.variant(3)
        with pytest.raises(IndexError):
            fam.variant(-1)

    def test_downgrade_chain(self):
        fam = make_family()
        v = fam.highest
        v = fam.downgrade(v)
        assert v.level == 1
        v = fam.downgrade(v)
        assert v.level == 0
        assert fam.downgrade(v) is None

    def test_upgrade_chain(self):
        fam = make_family()
        assert fam.upgrade(fam.lowest).level == 1
        assert fam.upgrade(fam.highest) is None

    def test_accuracy_improvement_delta(self):
        fam = make_family()
        assert fam.accuracy_improvement(fam.variant(2)) == pytest.approx(0.10)
        assert fam.accuracy_improvement(fam.variant(1)) == pytest.approx(0.10)

    def test_accuracy_improvement_lowest_is_own_accuracy(self):
        fam = make_family()
        # Paper: lowest variant's Ai is its accuracy in decimal form.
        assert fam.accuracy_improvement(fam.lowest) == pytest.approx(0.70)

    def test_rejects_unordered_variants(self):
        with pytest.raises(ValueError, match="increasing accuracy"):
            make_family(accuracies=(90.0, 80.0))

    def test_rejects_wrong_levels(self):
        good = make_variant(level=0)
        bad = make_variant(level=2, accuracy=95.0)
        with pytest.raises(ValueError, match="level"):
            ModelFamily(name="Fam", task="t", dataset="d", variants=(good, bad))

    def test_rejects_foreign_variant(self):
        fam = make_family()
        other = make_variant(level=0, family="Other")
        with pytest.raises(ValueError, match="not a member"):
            fam.downgrade(other)

    def test_equal_copy_is_a_member(self):
        # The identity fast path must not turn away an equal object that
        # is not the registered one (e.g. one restored from a pickle).
        fam = make_family()
        copy = dataclasses.replace(fam.variant(1))
        assert copy is not fam.variant(1)
        assert fam.downgrade(copy) is fam.lowest
        assert fam.accuracy_improvement(copy) == fam.accuracy_improvement(
            fam.variant(1)
        )

    def test_rejects_impostor_at_a_registered_level(self):
        fam = make_family()
        impostor = make_variant(level=1, accuracy=85.0)
        with pytest.raises(ValueError, match="does not match"):
            fam.upgrade(impostor)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            ModelFamily(name="Fam", task="t", dataset="d", variants=())

    def test_single_variant_family(self):
        fam = make_family(accuracies=(75.0,))
        assert fam.lowest is fam.highest
        assert fam.downgrade(fam.lowest) is None
        assert fam.accuracy_improvement(fam.lowest) == pytest.approx(0.75)
