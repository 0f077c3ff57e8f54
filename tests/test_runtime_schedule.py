"""Tests for repro.runtime.schedule — the keep-alive ledger.

Also home to the property tests of its incremental memory ledger: after
any write sequence, ``memory_at`` must match a from-scratch
recomputation over the entry maps.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.zoo import default_zoo
from repro.runtime.schedule import KeepAliveSchedule


@pytest.fixture()
def sched():
    return KeepAliveSchedule(n_functions=3, keep_alive_window=10)


class TestPlans:
    def test_set_plan_covers_offsets(self, sched, gpt):
        plan = [gpt.highest] * 3 + [None] * 7
        sched.set_plan(0, 100, plan)
        assert sched.alive_variant(0, 101) == gpt.highest
        assert sched.alive_variant(0, 103) == gpt.highest
        assert sched.alive_variant(0, 104) is None
        assert sched.alive_variant(0, 100) is None  # plan starts at +1

    def test_plan_overwrites_previous(self, sched, gpt):
        sched.set_plan(0, 100, [gpt.highest] * 10)
        sched.set_plan(0, 103, [None] * 10)
        # minutes 104..113 cleared; 101..103 still from the first plan
        assert sched.alive_variant(0, 103) == gpt.highest
        assert sched.alive_variant(0, 107) is None

    def test_plan_too_long_rejected(self, sched, gpt):
        with pytest.raises(ValueError, match="exceeds"):
            sched.set_plan(0, 0, [gpt.highest] * 11)

    def test_short_plan_allowed(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.lowest])
        assert sched.alive_variant(0, 1) == gpt.lowest

    def test_mark_alive_same_minute(self, sched, gpt):
        sched.mark_alive(1, 50, gpt.lowest)
        assert sched.alive_variant(1, 50) == gpt.lowest

    def test_bad_fid(self, sched, gpt):
        with pytest.raises(IndexError):
            sched.set_plan(3, 0, [gpt.highest])

    def test_equal_distinct_variant_keeps_the_ledger(self, sched, gpt):
        # set_plan compares by identity: an equal but distinct object
        # replaces the entry, and the footprint counts stay as they were.
        sched.set_plan(0, 0, [gpt.highest] * 10)
        before = [sched.footprint_counts(m) for m in range(12)]
        copy = dataclasses.replace(gpt.highest)
        sched.set_plan(0, 0, [copy] * 10)
        assert [sched.footprint_counts(m) for m in range(12)] == before
        assert sched.alive_variant(0, 5) is copy
        assert sched.memory_at(5) == gpt.highest.memory_mb


class TestMemoryAccounting:
    def test_memory_at_sums_variants(self, sched, gpt, bert):
        sched.mark_alive(0, 5, gpt.highest)
        sched.mark_alive(1, 5, bert.lowest)
        expected = gpt.highest.memory_mb + bert.lowest.memory_mb
        assert sched.memory_at(5) == pytest.approx(expected)

    def test_empty_minute_is_zero(self, sched):
        assert sched.memory_at(0) == 0.0

    def test_alive_at(self, sched, gpt):
        sched.mark_alive(2, 7, gpt.lowest)
        assert sched.alive_at(7) == {2: gpt.lowest}


class TestDowngrade:
    def test_downgrade_steps_one_level(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.highest] * 10)
        freed = sched.downgrade(0, 1, gpt)
        assert sched.alive_variant(0, 1).level == gpt.highest.level - 1
        assert freed == pytest.approx(
            gpt.highest.memory_mb - gpt.variant(gpt.highest.level - 1).memory_mb
        )

    def test_downgrade_applies_to_future_entries(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.highest] * 10)
        sched.downgrade(0, 5, gpt)
        assert sched.alive_variant(0, 3).level == 2  # before from_minute
        assert sched.alive_variant(0, 9).level == 1

    def test_lowest_dropped_when_allowed(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.lowest] * 10)
        freed = sched.downgrade(0, 1, gpt, allow_drop=True)
        assert sched.alive_variant(0, 1) is None
        assert freed == pytest.approx(gpt.lowest.memory_mb)

    def test_lowest_kept_when_drop_forbidden(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.lowest] * 10)
        freed = sched.downgrade(0, 1, gpt, allow_drop=False)
        assert sched.alive_variant(0, 1) == gpt.lowest
        assert freed == 0.0

    def test_mixed_levels_downgraded_entrywise(self, sched, gpt):
        plan = [gpt.lowest, gpt.highest, gpt.variant(1)]
        sched.set_plan(0, 0, plan)
        sched.downgrade(0, 1, gpt, allow_drop=False)
        assert sched.alive_variant(0, 1) == gpt.lowest  # was lowest, kept
        assert sched.alive_variant(0, 2).level == 1
        assert sched.alive_variant(0, 3).level == 0

    def test_memory_never_increases(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.highest] * 10)
        before = sched.memory_at(4)
        for _ in range(5):
            sched.downgrade(0, 4, gpt)
            after = sched.memory_at(4)
            assert after <= before
            before = after


class TestAdvance:
    def test_advance_drops_past(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.highest] * 10)
        sched.advance(5)
        assert sched.alive_variant(0, 4) is None
        assert sched.alive_variant(0, 5) == gpt.highest
        assert sched.planned_minutes(0) == [5, 6, 7, 8, 9, 10]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            KeepAliveSchedule(0, 10)
        with pytest.raises(ValueError):
            KeepAliveSchedule(1, 0)


# -- incremental ledger property test ------------------------------------

_FAMILIES = list(default_zoo())
_N_FN = 3
_HORIZON = 64


@st.composite
def _ops(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["mark", "plan", "clear", "downgrade", "advance"]))
        fid = draw(st.integers(min_value=0, max_value=_N_FN - 1))
        minute = draw(st.integers(min_value=0, max_value=_HORIZON - 12))
        level = draw(st.integers(min_value=0, max_value=2))
        ops.append((kind, fid, minute, level))
    return ops


def _variant(fid, level):
    family = _FAMILIES[fid % len(_FAMILIES)]
    return family.variant(min(level, family.n_variants - 1))


@given(_ops())
@settings(max_examples=60, deadline=None)
def test_incremental_ledger_matches_recomputation(ops):
    schedule = KeepAliveSchedule(_N_FN, keep_alive_window=10)
    frontier = 0
    for kind, fid, minute, level in ops:
        minute = max(minute, frontier)  # writes behind the frontier are UB
        if kind == "mark":
            schedule.mark_alive(fid, minute, _variant(fid, level))
        elif kind == "plan":
            plan = [
                _variant(fid, level) if (minute + off) % 3 else None
                for off in range(1, 11)
            ]
            schedule.set_plan(fid, minute, plan)
        elif kind == "clear":
            schedule.clear(fid, minute)
        elif kind == "downgrade":
            schedule.downgrade(
                fid, minute, _FAMILIES[fid % len(_FAMILIES)], allow_drop=level != 0
            )
        else:
            schedule.advance(minute)
            frontier = max(frontier, minute)
    for m in range(_HORIZON + 12):
        incremental = schedule.memory_at(m)
        exact = schedule.recompute_memory_at(m)
        assert incremental == pytest.approx(exact, abs=1e-6)
        if exact == 0.0:
            assert incremental == 0.0  # empty minutes are exactly zero


@given(_ops())
@settings(max_examples=30, deadline=None)
def test_memory_vector_matches_per_minute_reads(ops):
    schedule = KeepAliveSchedule(_N_FN, keep_alive_window=10)
    for kind, fid, minute, level in ops:
        if kind in ("mark", "clear"):
            if kind == "mark":
                schedule.mark_alive(fid, minute, _variant(fid, level))
            else:
                schedule.clear(fid, minute)
        elif kind == "plan":
            schedule.set_plan(fid, minute, [_variant(fid, level)] * 10)
    vec = schedule.memory_vector
    for m in range(max(len(vec), _HORIZON)):
        # Minutes past the ledger's end read exactly 0.0.
        assert schedule.memory_at(m) == (vec[m] if m < len(vec) else 0.0)
