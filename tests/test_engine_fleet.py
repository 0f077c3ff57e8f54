"""Golden equivalence for the fleet engine.

The columnar fleet engine (:mod:`repro.runtime.fleet`) must produce
*bit-identical* results to the reference minute loop, the oracle: the
same ``RunResult`` and, with decision traces on for every fid, the same
cold, plan and downgrade records in the same order (victims, their
order and forced valve victims included), under capacity-valve
pressure and fault plans, and under a permutation of function ids that
reorders the reducer's fid-ascending candidate arrays.

Also home to the unit properties of the columnar kernel itself:
``seq_fold`` versus a scalar accumulation loop, the vectorized
threshold schemes versus their scalar ``select_level``, the ring's
batched ``downgrade_many`` and ``write_plans`` versus successive
``KeepAliveSchedule.downgrade`` and ``set_plan`` calls, the columnar
estimator's rows versus the reference ``InterArrivalEstimator``, and
Algorithm 2's flatten cut over a victim batch versus a pop-by-pop
fold.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.openwhisk import FixedKeepAlivePolicy, OpenWhiskPolicy
from repro.baselines.static import (
    AllLowQualityPolicy,
    IntelligentOraclePolicy,
    RandomMixedPolicy,
)
from repro.core.interarrival import InterArrivalEstimator
from repro.core.pulse import PulseConfig, PulsePolicy
from repro.core.thresholds import MonotoneScheme, TechniqueT1, TechniqueT2
from repro.faults.plan import FaultPlan
from repro.experiments.assignments import sample_assignment
from repro.models.zoo import default_zoo
from repro.obs.fleet import CANDIDATE_CAP
from repro.obs.session import ObservabilityConfig
from repro.runtime.columnar import (
    ColumnarEstimator,
    RingSchedule,
    VariantTables,
    seq_fold,
)
from repro.runtime.fleet import (
    _flatten_prefix,
    _memory_fold,
    _vector_levels,
)
from repro.runtime.schedule import KeepAliveSchedule
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from tests.conftest import assert_records_equal

POLICIES = {
    "openwhisk": OpenWhiskPolicy,
    "fixed-lowest": AllLowQualityPolicy,
    "fixed-level-1": lambda: FixedKeepAlivePolicy(level=1),
    "random-mixed": lambda: RandomMixedPolicy(seed=3),
    "pulse": PulsePolicy,
    "pulse-t2": lambda: PulsePolicy(PulseConfig(threshold_scheme="T2")),
}

#: The decision-trace record kinds the goldens compare, per kind in order.
DECISION_KINDS = ("cold", "plan", "downgrade")


def traced(cfg, trace):
    """``cfg`` with decision traces for every fid: the reference loop
    records every function, the fleet its sample, here all of them."""
    return replace(
        cfg, observe=ObservabilityConfig(trace_sample=trace.n_functions)
    )


def capped_table(table):
    """A downgrade candidate table in the fleet's recorded form: rows by
    ascending ``Uv`` (protected rows last, ties fid-ascending), cut at
    :data:`CANDIDATE_CAP` with an ``omitted`` trailer. The reference
    records the full fid-ordered table; reducing an already-capped table
    gives it back unchanged."""
    rows = [r for r in table if "omitted" not in r]
    omitted = sum(r["omitted"] for r in table if "omitted" in r)
    rows.sort(key=lambda r: (r["Uv"] if "Uv" in r else float("inf"), r["fid"]))
    omitted += max(len(rows) - CANDIDATE_CAP, 0)
    rows = rows[:CANDIDATE_CAP]
    return rows + [{"omitted": omitted}] if omitted else rows


def decisions(result, kind):
    """``result``'s decision-trace records of one kind, in recording
    order, with candidate tables in the capped form."""
    return [
        dict(r, candidates=capped_table(r["candidates"]))
        if "candidates" in r
        else r
        for r in result.obs.records
        if r["kind"] == kind
    ]


def assert_identical(ref, other):
    """Every deterministic RunResult field matches exactly (wall clock and
    overhead instrumentation excluded by design), and so do the decision
    traces when both runs recorded them."""
    assert other.policy_name == ref.policy_name
    assert other.n_invocations == ref.n_invocations
    assert other.n_warm == ref.n_warm
    assert other.n_cold == ref.n_cold
    assert other.n_forced_downgrades == ref.n_forced_downgrades
    assert other.n_spawn_failures == ref.n_spawn_failures
    assert other.n_retries == ref.n_retries
    assert other.n_policy_faults == ref.n_policy_faults
    assert other.n_degraded_minutes == ref.n_degraded_minutes
    assert other.total_service_time_s == ref.total_service_time_s
    assert other.keepalive_cost_usd == ref.keepalive_cost_usd
    assert other.mean_accuracy == ref.mean_accuracy
    for a, b in (
        (ref.memory_series_mb, other.memory_series_mb),
        (ref.ideal_memory_series_mb, other.ideal_memory_series_mb),
    ):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)
    if ref.obs is not None and other.obs is not None:
        for kind in DECISION_KINDS:
            assert_records_equal(
                decisions(other, kind), decisions(ref, kind), kind
            )


def ref_vs_fleet(trace, assignment, factory, cfg):
    ref = Simulation(trace, assignment, factory(), cfg).run(engine="reference")
    fleet = Simulation(trace, assignment, factory(), cfg).run(engine="fleet")
    return ref, fleet


def trace_story(result):
    """The decision trace's cold starts and downgrades, interleaved in
    recording order, with each downgrade's ``forced`` flag."""
    return [
        (r["t"], "cold", r["fid"], r["variant"])
        if r["kind"] == "cold"
        else (r["t"], "downgrade", r["fid"], r["to"], r["forced"])
        for r in result.obs.records
        if r["kind"] in ("cold", "downgrade")
    ]


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_default_config(self, small_trace, assignment, name):
        cfg = SimulationConfig()  # series on
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_lean_config(self, small_trace, assignment, name):
        cfg = SimulationConfig(record_series=False)
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", ["openwhisk", "pulse", "pulse-t2"])
    def test_event_log(self, small_trace, assignment, name):
        """The reference decision trace's cold starts and downgrade
        victims, interleaved in order, are the fleet's."""
        cfg = traced(SimulationConfig(), small_trace)
        ref, fleet = ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        assert_identical(ref, fleet)
        story = trace_story(ref)
        assert any(s[1] == "cold" for s in story)
        assert_records_equal(trace_story(fleet), story)

    @pytest.mark.parametrize("name", ["openwhisk", "pulse"])
    def test_capacity_valve(self, small_trace, assignment, name):
        cfg = SimulationConfig(memory_capacity_mb=4000.0, capacity_seed=11)
        ref, fleet = ref_vs_fleet(
            small_trace, assignment, POLICIES[name], cfg
        )
        assert ref.n_forced_downgrades > 0  # the axis is actually exercised
        assert_identical(ref, fleet)

    def test_capacity_and_events_together(self, small_trace, assignment):
        cfg = traced(
            SimulationConfig(memory_capacity_mb=4000.0, capacity_seed=11),
            small_trace,
        )
        ref, fleet = ref_vs_fleet(small_trace, assignment, PulsePolicy, cfg)
        story = trace_story(ref)
        # Both kinds of downgrade are exercised: Algorithm 2's and the
        # valve's forced ones.
        assert {s[4] for s in story if s[1] == "downgrade"} == {False, True}
        assert_identical(ref, fleet)
        assert_records_equal(trace_story(fleet), story)

    @pytest.mark.parametrize(
        "spec",
        [
            "spawn=0.2,seed=7",
            "slow=0.3,seed=5",
            "pressure=0.1,pressure-mb=4000,seed=9",
            "drop=0.05,jitter=0.2,seed=3",
        ],
    )
    def test_fault_plans(self, small_trace, assignment, spec):
        cfg = traced(
            SimulationConfig(faults=FaultPlan.from_spec(spec)), small_trace
        )
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, PulsePolicy, cfg)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_fleets(self, zoo, seed):
        """Seeded 50–500-function synthetics, with and without faults."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 501))
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_minutes=180, seed=seed + 100, n_functions=n
            )
        )
        assignment = sample_assignment(n, zoo, seed=seed + 1)
        faults = (
            FaultPlan(seed=seed, spawn_failure_rate=0.1, cold_slowdown_rate=0.1)
            if seed % 2
            else None
        )
        cfg = SimulationConfig(
            memory_capacity_mb=300.0 * n,
            capacity_seed=seed,
            faults=faults,
        )
        assert_identical(
            *ref_vs_fleet(trace, assignment, PulsePolicy, traced(cfg, trace))
        )


    @pytest.mark.parametrize("normalization", ["window", "all"])
    @pytest.mark.parametrize(
        "mode", ["exact", "survival", "cumulative", "hazard"]
    )
    def test_probability_configs(
        self, small_trace, assignment, mode, normalization
    ):
        """Every probability mode under both normalizations, at a flatten
        target tight enough that peak reviews read each alive fid's *Ip*
        and max-remaining probability."""
        ref, fleet = ref_vs_fleet(
            small_trace, assignment,
            lambda: PulsePolicy(PulseConfig(
                memory_threshold=0.02,
                probability_mode=mode,
                probability_normalization=normalization,
            )),
            traced(SimulationConfig(), small_trace),
        )
        assert decisions(ref, "downgrade")
        assert_identical(ref, fleet)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_valve_decisions_under_fid_reversal(self, seed):
        """Property: under valve pressure, the fleet's downgrade
        decisions — victims, their order, forced valve victims — match
        the reference's decision trace after the fid space is reversed."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 60))
        zoo = default_zoo()
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_minutes=90, seed=seed, n_functions=n
            )
        )
        assignment = sample_assignment(n, zoo, seed=seed + 1)
        # Reversal moves every function to the opposite end of the fid
        # space, so the valve's fid-ascending candidate array and the
        # capacity RNG's draws land on different functions.
        perm = np.arange(n)[::-1].copy()
        trace = trace.select_functions(list(perm), name="permuted")
        assignment = {
            new: assignment[int(old)] for new, old in enumerate(perm)
        }
        cfg = SimulationConfig(
            memory_capacity_mb=250.0 * n,
            capacity_seed=seed,
        )
        ref, fleet = ref_vs_fleet(
            trace, assignment, PulsePolicy, traced(cfg, trace)
        )
        assert_identical(ref, fleet)


    def test_review_with_an_irregular_family(self, zoo):
        """A family whose level 1 is lighter than its level 0 and barely
        more accurate: a downgrade from level 1 *raises* the minute's
        memory, so the flatten check cannot assume memory falls along a
        victim batch, and a row's ``Uv`` can fall after a downgrade
        from level 2 (its ``Ai`` shrinks more than its ``Pr`` grows),
        so the pick order needs each row's running max. Victims,
        candidate tables and run results still match the reference."""
        fams = list(zoo)
        fam = next(f for f in fams if f.n_variants >= 3)
        low, mid = fam.variants[:2]
        odd = replace(
            fam,
            name="Odd",
            variants=(
                replace(low, family="Odd", memory_mb=mid.memory_mb),
                replace(
                    mid, family="Odd", memory_mb=low.memory_mb,
                    accuracy=low.accuracy + 0.2,
                ),
            )
            + tuple(replace(v, family="Odd") for v in fam.variants[2:]),
        )
        n = 40
        trace = generate_trace(
            SyntheticTraceConfig(horizon_minutes=120, seed=3, n_functions=n)
        )
        assignment = {
            fid: odd if fid % 2 else fams[fid % len(fams)] for fid in range(n)
        }
        ref, fleet = ref_vs_fleet(
            trace, assignment,
            lambda: PulsePolicy(PulseConfig(memory_threshold=0.02)),
            traced(SimulationConfig(), trace),
        )
        assert decisions(ref, "downgrade")
        assert_identical(ref, fleet)

    def test_review_edge_cases_under_peak_pressure(self, zoo, monkeypatch):
        """Algorithm 2's victim loop under a tight flatten target: one
        fid downgraded several times in a review, its batched ring write
        crossing level 0 under both drop branches, and ``Uv`` ties
        settled by the lowest-fid rule — the same victims, in the same
        order, as the reference, with byte-identical candidate
        tables."""
        crossed = {True: 0, False: 0}
        batched = RingSchedule.downgrade_many

        def spy(ring, fids, n, allow_drop):
            old = ring.levels[fids].astype(np.int64)
            past_zero = (old >= 0) & (old < n[:, None]) & (n[:, None] >= 2)
            for allow in (True, False):
                crossed[allow] += int(
                    (past_zero & (allow_drop[:, None] == allow)).sum()
                )
            batched(ring, fids, n, allow_drop)

        monkeypatch.setattr(RingSchedule, "downgrade_many", spy)
        n = 24
        trace = generate_trace(
            SyntheticTraceConfig(horizon_minutes=120, seed=5, n_functions=n)
        )
        assignment = sample_assignment(n, zoo, seed=6)
        cfg = traced(SimulationConfig(), trace)
        ref, fleet = ref_vs_fleet(
            trace, assignment,
            lambda: PulsePolicy(PulseConfig(memory_threshold=0.02)), cfg,
        )
        assert crossed[True] and crossed[False]
        got = decisions(fleet, "downgrade")
        assert_records_equal(got, decisions(ref, "downgrade"))
        per_review = Counter((r["t"], r["fid"]) for r in got)
        assert max(per_review.values()) >= 2
        ties = [
            r for r in got
            if len(r["candidates"]) > 1
            and r["candidates"][1].get("Uv") == r["candidates"][0]["Uv"]
        ]
        assert ties and all(r["candidates"][0]["fid"] == r["fid"] for r in ties)
        for mine, theirs in zip(got, decisions(ref, "downgrade")):
            assert json.dumps(mine["candidates"]) == json.dumps(
                theirs["candidates"]
            )
        assert_identical(ref, fleet)


class TestLongVictimBatches:
    """Algorithm 2 at a tight flatten target (``memory_threshold=0.02``)
    on 300 functions × 180 minutes: peak reviews pick hundreds of
    victims, so the reducer's victim batches run long and both Eq. 1
    rebuild triggers — the max count growing, the last row leaving the
    min — fire inside a review. Untraced, the fleet must equal the
    reference on the run result, the memory-series bytes and the final
    priority counts; traced (every 8th fid sampled), it must equal the
    untraced fleet run."""

    N_FUNCTIONS, HORIZON = 300, 180

    @pytest.fixture(scope="class")
    def case(self, zoo):
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_minutes=self.HORIZON, seed=9,
                n_functions=self.N_FUNCTIONS,
            )
        )
        return trace, sample_assignment(self.N_FUNCTIONS, zoo, seed=10)

    @staticmethod
    def policy():
        return PulsePolicy(PulseConfig(memory_threshold=0.02))

    def fleet_run(self, case, cfg):
        """(RunResult, final priority counts, the Eq. 1 (min, max) each
        victim batch ran under, grouped per review)."""
        from repro.runtime import fleet as fleet_mod
        from repro.runtime.driver import drive, open_stepper

        reviews: list[list[tuple[int, int]]] = []
        pop_order = fleet_mod._pop_order
        review = fleet_mod.FleetState.review

        def spy_review(state, minute, obs=None):
            reviews.append([])
            review(state, minute, obs)

        def spy_pop_order(*args):
            reviews[-1].append(args[6:8])
            return pop_order(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fleet_mod.FleetState, "review", spy_review)
            mp.setattr(fleet_mod, "_pop_order", spy_pop_order)
            stepper = open_stepper(
                Simulation(*case, self.policy(), cfg), "fleet"
            )
            drive(stepper)
        return stepper.finalize(), stepper.fleet.priority.counts, reviews

    @pytest.fixture(scope="class")
    def untraced(self, case):
        return self.fleet_run(case, SimulationConfig())

    def test_fleet_matches_reference(self, case, untraced):
        policy = self.policy()
        ref = Simulation(*case, policy, SimulationConfig()).run(
            engine="reference"
        )
        fleet, counts, reviews = untraced
        assert_identical(ref, fleet)
        assert ref.memory_series_mb.tobytes() == fleet.memory_series_mb.tobytes()
        np.testing.assert_array_equal(counts, policy.priority_counts)
        # Both rebuild triggers fire between two batches of one review.
        moves = [
            (b[0] - a[0], b[1] - a[1])
            for batches in reviews
            for a, b in zip(batches, batches[1:])
        ]
        assert any(dmin > 0 for dmin, _ in moves)
        assert any(dmax > 0 for _, dmax in moves)

    def test_traced_matches_untraced(self, case, untraced):
        off, off_counts, _ = untraced
        on, on_counts, _ = self.fleet_run(
            case,
            SimulationConfig(observe=ObservabilityConfig(trace_sample=8)),
        )
        assert on.obs.downgrade_series.max() >= 200  # long victim batches
        assert any(r["kind"] == "downgrade" for r in on.obs.records)
        assert_identical(off, on)
        assert off.memory_series_mb.tobytes() == on.memory_series_mb.tobytes()
        np.testing.assert_array_equal(on_counts, off_counts)


class TestColumnarKernel:
    @staticmethod
    def flatten_by_pops(mem, src, dst, target, fps):
        """The reference rule: fold the slot counts after every pop and
        stop at the first fold at or below ``target``."""
        now = list(mem)
        for i, (s, d) in enumerate(zip(src, dst)):
            if s < len(fps):
                now[s] -= 1
            if d < len(fps):
                now[d] += 1
            current = _memory_fold(now, fps)
            if current <= target:
                break
        return i + 1, now, current

    @pytest.mark.parametrize("seed", range(4))
    def test_flatten_prefix_matches_pop_by_pop_fold(self, seed):
        """Algorithm 2's flatten cut over a batch of pops equals folding
        the counts after every pop, also when the target is one of the
        folds (the float cumsum then often lands one pop off, either
        way) and when a pop frees a negative amount."""
        rng = np.random.default_rng(seed)
        cases = [([5, 0], [0] * 5, [2] * 5, 2.4, [0.6, 2.2])]
        while len(cases) < 500:
            # Distinct footprints, as in a slot table; odd seeds make the
            # lower of the first two the heavier.
            fps = sorted(set(
                rng.uniform(0.05, 3.0, int(rng.integers(2, 5)))
                .round(int(rng.integers(1, 4)))
                .tolist()
            ))
            n = len(fps)
            if n < 2:
                continue
            if seed % 2:
                fps[0], fps[1] = fps[1], fps[0]
            mem = rng.integers(0, 6, n).tolist()
            now, src, dst = list(mem), [], []
            for _ in range(int(rng.integers(1, 12))):
                held = [slot for slot in range(n) if now[slot]]
                if not held:
                    break
                s = held[int(rng.integers(len(held)))]
                d = s - 1 if s else n
                src.append(s)
                dst.append(d)
                now[s] -= 1
                if d < n:
                    now[d] += 1
            if not src:
                continue
            folds = [
                self.flatten_by_pops(mem, src[: i + 1], dst, -1.0, fps)[2]
                for i in range(len(src))
            ]
            cases.append((mem, src, dst, folds[int(rng.integers(len(folds)))], fps))
        for mem, src, dst, target, fps in cases:
            current = _memory_fold(mem, fps)
            if current <= target:
                continue
            k, now, at = _flatten_prefix(
                np.array(mem), np.array(src), np.array(dst), current, target,
                fps,
            )
            assert (k, now.tolist(), at) == self.flatten_by_pops(
                mem, src, dst, target, fps
            )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=40,
        ),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_seq_fold_matches_scalar_loop(self, values, acc0):
        acc = acc0
        for v in values:
            acc += v
        assert seq_fold(acc0, np.array(values, dtype=np.float64)) == acc

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_vector_levels_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        m, w = 16, 6  # (functions, window offsets), the kernel's shape
        probs = rng.random((m, w))
        probs[rng.random((m, w)) < 0.2] = 0.0  # exercise the p == 0 branches
        probs[rng.random((m, w)) < 0.1] = 1.0
        nv = rng.integers(1, 5, size=m)
        for scheme in (
            TechniqueT1(),
            TechniqueT2(),
            MonotoneScheme(cuts=(0.2, 0.5, 0.8)),
        ):
            got = _vector_levels(probs, nv, scheme)
            for i in range(m):
                for j in range(w):
                    want = scheme.select_level(float(probs[i, j]), int(nv[i]))
                    assert got[i, j] == (-1 if want is None else want), (
                        scheme,
                        probs[i, j],
                        nv[i],
                    )


    @staticmethod
    def _ring_counts(ring):
        """The (column, slot) ledger recomputed from the level matrix."""
        cnt = np.zeros_like(ring.cnt)
        fids, cols = np.nonzero(ring.levels >= 0)
        lv = ring.levels[fids, cols].astype(np.int64)
        np.add.at(cnt, (cols, ring.slot_of[ring.fam[fids], lv]), 1)
        return cnt

    @classmethod
    def _random_ring(cls, rng, seed):
        """(assignment, tables, ring, minute, schedule): a 12-fid ring at
        a random ``minute`` (so it wraps mid-window), filled with random
        levels (absent included), and a ``KeepAliveSchedule`` holding the
        same entries."""
        n_fn, window = 12, int(rng.integers(1, 8))
        assignment = sample_assignment(n_fn, default_zoo(), seed=seed)
        tables = VariantTables(assignment, n_fn)
        ring = RingSchedule(tables, window)
        nv = tables.n_variants[:, None]
        ring.levels[:] = np.floor(
            rng.random((n_fn, ring.n_cols)) * (nv + 1)
        ).astype(np.int8) - 1  # -1 (absent) .. nv-1, uniformly
        ring.cnt[:] = cls._ring_counts(ring)
        minute = int(rng.integers(0, 1_000))
        sched = KeepAliveSchedule(n_fn, window)
        for fid in range(n_fn):
            for m in range(minute, minute + ring.n_cols):
                level = int(ring.levels[fid, m % ring.n_cols])
                if level >= 0:
                    sched.mark_alive(fid, m, assignment[fid].variants[level])
        return assignment, tables, ring, minute, sched

    @classmethod
    def _assert_ring_matches(cls, tables, ring, sched, minute):
        """The ring's levels and per-minute footprint counts equal the
        schedule's over minutes ``minute .. minute+K``, and its ledger
        equals the one recomputed from its levels."""
        for m in range(minute, minute + ring.n_cols):
            col = m % ring.n_cols
            for fid in range(ring.n_functions):
                variant = sched.alive_variant(fid, m)
                want = -1 if variant is None else variant.level
                assert ring.levels[fid, col] == want, (fid, m)
            counts = {
                tables.slot_fps[slot]: int(c)
                for slot, c in enumerate(ring.cnt[col])
                if c
            }
            want_counts = {
                fp: c for fp, c in sched.footprint_counts(m).items() if c
            }
            assert counts == want_counts, m
        np.testing.assert_array_equal(ring.cnt, cls._ring_counts(ring))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_downgrade_many_matches_sequential_downgrades(self, seed):
        """The ring's batched write leaves what ``n`` successive
        ``KeepAliveSchedule.downgrade`` calls per fid leave — levels and
        per-minute footprint counts — for random levels (absent
        included), n in 1..4, both drop branches and any ring offset."""
        rng = np.random.default_rng(seed)
        assignment, tables, ring, minute, sched = self._random_ring(rng, seed)
        n_fn = ring.n_functions
        fids = np.sort(rng.choice(n_fn, size=int(rng.integers(1, n_fn)),
                                  replace=False))
        n = rng.integers(1, 5, size=fids.size)
        allow_drop = rng.random(fids.size) < 0.5
        for fid, k, allow in zip(fids.tolist(), n.tolist(), allow_drop):
            for _ in range(k):
                sched.downgrade(fid, minute, assignment[fid], bool(allow))
        ring.downgrade_many(fids, n, allow_drop)
        self._assert_ring_matches(tables, ring, sched, minute)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_write_plans_matches_sequential_set_plan(self, seed):
        """The ring's plan write leaves what one ``KeepAliveSchedule.
        set_plan`` per fid leaves — levels and per-minute footprint
        counts — for plans with −1 entries, plans equal to what is
        already planned, broadcast fixed plans and any ring offset."""
        rng = np.random.default_rng(seed)
        assignment, tables, ring, minute, sched = self._random_ring(rng, seed)
        n_fn = ring.n_functions
        fids = np.sort(rng.choice(n_fn, size=int(rng.integers(1, n_fn + 1)),
                                  replace=False))
        width = int(rng.integers(1, ring.keep_alive_window + 1))
        cols = (minute + 1 + np.arange(width)) % ring.n_cols
        fid_nv = tables.n_variants[fids][:, None]
        if seed % 3 == 0:  # a fixed policy's plan: one level per row
            plan = np.broadcast_to(
                rng.integers(0, fid_nv), (fids.size, width)
            )
        else:
            plan = np.floor(
                rng.random((fids.size, width)) * (fid_nv + 1)
            ).astype(np.int64) - 1
            same = rng.random(fids.size) < 0.3  # rows already planned
            plan[same] = ring.levels[fids[same]][:, cols]
        for fid, row in zip(fids.tolist(), plan.tolist()):
            sched.set_plan(fid, minute, [
                None if lv < 0 else assignment[fid].variants[lv] for lv in row
            ])
        ring.write_plans(fids, minute, plan)
        self._assert_ring_matches(tables, ring, sched, minute)

    @pytest.mark.parametrize("normalization", ["window", "all"])
    @pytest.mark.parametrize(
        "mode", ["exact", "survival", "cumulative", "hazard"]
    )
    def test_estimator_rows_match_reference(self, mode, normalization):
        """The columnar estimator's rows equal the reference estimator's
        per-fid values exactly (``==``): the exact and mode rows, *Ip*
        and the max-remaining probability, over random arrival streams
        with never-seen fids, offsets beyond the window and recent
        periods that empty by eviction."""
        rng = np.random.default_rng(
            ["exact", "survival", "cumulative", "hazard"].index(mode)
            + 4 * (normalization == "all")
        )
        n_fn, window, local_window = 40, 6, 15
        est = ColumnarEstimator(n_fn, window, local_window, normalization, mode)
        ref = InterArrivalEstimator(
            n_fn, window, local_window, normalization, mode
        )
        # Per-fid arrival rates from bursty to rare; the last fids are
        # never invoked. Quiet stretches let whole recent periods expire.
        rate = np.append(rng.uniform(0.02, 0.6, n_fn - 4), np.zeros(4))
        checked = dict.fromkeys(
            ("never seen", "beyond window", "in window", "evicted", "both"), 0
        )
        all_fids = np.arange(n_fn)
        for minute in range(300):
            quiet = 120 <= minute < 150
            fids = np.flatnonzero(
                rng.random(n_fn) < rate * (0.05 if quiet else 1.0)
            )
            est.evict(minute)
            est.observe(fids, minute)
            for fid in fids.tolist():
                ref.observe(fid, minute)
            exact = est.exact_rows(all_fids)
            probs = est.mode_rows(exact)
            ip, max_rem = est.ip_and_max_remaining(all_fids, minute)
            for fid in range(n_fn):
                want_exact = ref.exact_values(fid, minute)
                assert exact[fid].tolist() == want_exact, (minute, fid)
                assert probs[fid].tolist() == list(
                    ref.probability_values(fid, minute)
                ), (minute, fid)
                assert ip[fid] == ref.invocation_probability(fid, minute)
                last = ref.last_arrival(fid)
                offset = None if last is None else minute - last
                if offset is None:
                    want_max = 0.0
                    checked["never seen"] += 1
                elif offset <= 0:
                    want_max = 1.0
                elif offset > window:
                    want_max = 0.0
                    checked["beyond window"] += 1
                else:
                    want_max = max(want_exact[offset - 1:])
                    checked["in window"] += 1
                assert max_rem[fid] == want_max, (minute, fid)
                lifetime, recent = ref.n_gaps(fid)
                if lifetime:
                    checked["both" if recent else "evicted"] += 1
        assert all(checked.values()), checked


class TestRejections:
    def test_unsupported_policy(self, small_trace, assignment):
        sim = Simulation(
            small_trace, assignment, IntelligentOraclePolicy(),
            SimulationConfig(),
        )
        with pytest.raises(ValueError, match="fleet"):
            sim.run(engine="fleet")

    @pytest.mark.parametrize("edit", ["other variant", "gap", "short"])
    def test_non_constant_fixed_plan_refused(
        self, small_trace, assignment, edit
    ):
        """The fixed-plan probe refuses a plan that is not one variant
        over the full window, even from a fixed-baseline subclass."""

        class Uneven(FixedKeepAlivePolicy):
            def plan(self, function_id, minute):
                plan = list(super().plan(function_id, minute))
                if function_id == 5:
                    family = self.family(function_id)
                    if edit == "other variant":
                        plan[3] = family.highest
                    elif edit == "gap":
                        plan[-1] = None
                    else:
                        plan.pop()
                return plan

        sim = Simulation(
            small_trace, assignment, Uneven(level="lowest"),
            SimulationConfig(),
        )
        with pytest.raises(ValueError, match="constant full-window plan"):
            sim.run(engine="fleet")

    def test_checkpoint_accepted(self, small_trace, assignment, tmp_path):
        # Checkpointing is no longer rejected: the shared batch driver
        # snapshots the fleet stepper like the other engines (resume
        # round trips in test_runtime_checkpoint.py).
        from repro.runtime.checkpoint import CheckpointConfig, SimulationState

        sim = Simulation(
            small_trace, assignment, PulsePolicy(), SimulationConfig()
        )
        path = tmp_path / "c.ckpt"
        result = sim.run(
            engine="fleet",
            checkpoint=CheckpointConfig(path=path, every_minutes=240),
        )
        assert result.n_checkpoints == 2  # buckets 1 and 2 of 720 minutes
        assert SimulationState.load(path).engine == "fleet"

    def test_observe_accepted(self, small_trace, assignment):
        # Observability is no longer rejected: the fleet engine carries
        # a columnar FleetObsSession (full coverage in test_fleet_obs.py).
        from repro.obs.fleet import FleetObsSession

        sim = Simulation(
            small_trace, assignment, PulsePolicy(),
            SimulationConfig(observe=True),
        )
        result = sim.run(engine="fleet")
        assert isinstance(result.obs, FleetObsSession)


class TestFacadePlumbing:
    def test_api_simulate_fleet(self, small_trace, assignment):
        from repro.api import simulate

        ref = simulate(small_trace, assignment=assignment, policy=PulsePolicy())
        fleet = simulate(
            small_trace, assignment=assignment, policy=PulsePolicy(),
            engine="fleet",
        )
        assert_identical(ref, fleet)

    def test_experiment_config_accepts_fleet(self):
        from repro.experiments.runner import ExperimentConfig

        assert ExperimentConfig(engine="fleet").engine == "fleet"
        with pytest.raises(ValueError, match="engine"):
            ExperimentConfig(engine="warp")

    def test_run_policies_fleet_matches_reference(self, zoo):
        from functools import partial

        from repro.api import make_policy
        from repro.experiments.runner import ExperimentConfig, run_policies

        trace = generate_trace(
            SyntheticTraceConfig(horizon_minutes=120, seed=5)
        )
        factories = {"pulse": partial(make_policy, "pulse")}
        results = {}
        for engine in ("reference", "fleet"):
            cfg = ExperimentConfig(
                n_runs=2, horizon_minutes=120, engine=engine
            )
            results[engine] = run_policies(trace, factories, cfg, zoo)
        for a, b in zip(results["reference"]["pulse"], results["fleet"]["pulse"]):
            assert_identical(a, b)
