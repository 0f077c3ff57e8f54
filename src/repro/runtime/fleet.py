"""The fleet engine: vectorized simulation of 10⁴–10⁵ functions.

The reference loop (:mod:`repro.runtime.simulator`) iterates Python
objects per (function, minute); at fleet scale that is the bottleneck.
This engine keeps all per-function state in numpy arrays over fids
``0..n-1`` (:mod:`repro.runtime.columnar`), held by one
:class:`FleetState`, and runs the per-minute cycle as array kernels:

1. **serve / observe / plan**: serve the minute's invocations (cold/warm
   split, service-time and accuracy contributions), feed the
   inter-arrival estimator, map probabilities through the threshold
   scheme and install the keep-alive plans — all batched over the
   minute's invoking fids;
2. **reduce**: the *global* stages read the keep-alive ring's integer
   memory ledger and alive set directly — Algorithm 1 peak detection,
   Algorithm 2 lowest-utility downgrades (a peak's victims picked with
   one sort per stretch of constant Eq. 1 normalization, not one
   interpreter step per victim), and the provider capacity valve — and
   apply each stage's victim decisions to the ring as one batched write
   (see :meth:`FleetState.review`).

PULSE's cross-function stage is global by design, and it is the largest
stage of a peak minute at fleet scale (see ``docs/architecture.md`` for
the traced split), so the state is not partitioned: one fid space, one
reducer, bit-identical to the reference engine (pinned by
``tests/test_engine_fleet.py``).

Serving is fully vectorized; floats that the reference accumulates
sequentially are folded with :func:`~repro.runtime.columnar.seq_fold` so
the sums stay bit-identical. The engine has one execution path.

Observability runs columnar too: ``SimulationConfig.observe`` gets a
:class:`~repro.obs.fleet.FleetObsSession` whose ``tally_*`` batch hooks
fold numpy partials (plan-level histograms, memory/valve/downgrade
series) instead of per-decision ``record_*`` calls, plus full decision
traces for a seeded sample of fids (``ObservabilityConfig.trace_sample``)
so ``repro inspect`` why-queries keep working. Phase timers are
hierarchical — ``serve``, ``observe``, ``plan`` and ``reduce/peak-flatten|
downgrade|valve`` — and merge into one span tree per run
(:meth:`~repro.obs.spans.SpanTimer.tree`). All instrumentation only
*reads* engine state, so obs-on runs stay bit-identical to obs-off
(``tests/test_fleet_obs.py``).

Checkpoint/resume works as on the reference engine: the shared batch
driver (:mod:`repro.runtime.driver`) snapshots the fields
``SNAPSHOT_FIELDS["fleet"]`` names before the first event group of each
cadence bucket, and a resumed run
is bit-identical to an uninterrupted one.

Not supported (explicit ``ValueError``): ``measure_overhead`` (defined
over the reference loop's per-decision cadence), oracle policies, and
policies the compiler cannot map onto columnar state (anything beyond
PULSE and the fixed baselines).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.openwhisk import FixedKeepAlivePolicy
from repro.baselines.static import RandomMixedPolicy
from repro.core.peak import PeakDetector
from repro.core.priority import PriorityStructure
from repro.core.pulse import PulsePolicy
from repro.core.thresholds import (
    MonotoneScheme,
    TechniqueT1,
    TechniqueT2,
    ThresholdScheme,
)
from repro.core.utility import UtilityWeights
from repro.faults.injector import FaultInjector
from repro.obs.fleet import CANDIDATE_CAP, FleetObsSession
from repro.runtime.columnar import (
    ColumnarEstimator,
    RingSchedule,
    VariantTables,
    seq_fold,
)
from repro.runtime.driver import Stepper
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.simulator import emit_downgrade
from repro.utils.rng import rng_from_seed

__all__ = ["FleetState", "FleetStepper"]


# -- policy compilation ------------------------------------------------------


@dataclass
class _PulseModel:
    """PULSE's tunables, extracted for columnar evaluation."""

    kind = "pulse"
    window: int
    local_window: int
    normalization: str
    mode: str
    scheme: ThresholdScheme
    enable_global: bool
    cold_highest: bool
    memory_threshold: float
    prior_rule: str
    weights: UtilityWeights


@dataclass
class _FixedModel:
    """A per-function constant variant level (the fixed baselines)."""

    kind = "fixed"
    levels: np.ndarray  # (n_functions,) int64


def _compile_policy(
    policy: KeepAlivePolicy, n_functions: int, keep_alive_window: int
) -> _PulseModel | _FixedModel:
    """Map a bound policy onto columnar state, or refuse.

    The fleet engine cannot drive arbitrary policy code per (function,
    minute) — that is the loop it exists to eliminate — so it supports
    exactly the policies whose decisions it can evaluate as array ops:
    PULSE itself, and the fixed single-variant baselines (probed for a
    constant full-window plan rather than trusted by type). Everything
    else must run on the reference engine.
    """
    if type(policy) is PulsePolicy:
        cfg = policy.config
        return _PulseModel(
            window=cfg.window or keep_alive_window,
            local_window=cfg.local_window,
            normalization=cfg.probability_normalization,
            mode=cfg.probability_mode,
            scheme=policy._scheme,
            enable_global=cfg.enable_global,
            cold_highest=cfg.cold_variant == "highest",
            memory_threshold=cfg.memory_threshold,
            prior_rule=cfg.prior_rule,
            weights=cfg.utility_weights or UtilityWeights(),
        )
    fixed = isinstance(policy, (FixedKeepAlivePolicy, RandomMixedPolicy))
    if fixed and not policy.is_oracle and (
        type(policy).review_minute is KeepAlivePolicy.review_minute
    ):
        levels = np.empty(n_functions, dtype=np.int64)
        for fid in range(n_functions):
            plan = policy.plan(fid, 0)
            head = plan[0] if plan else None
            # ``list.count`` matches by identity, then by ``==``.
            if (
                head is None
                or len(plan) != keep_alive_window
                or plan.count(head) != keep_alive_window
                or policy.cold_variant(fid, 0) != head
            ):
                raise ValueError(
                    f"engine='fleet' cannot compile policy {policy.name!r}: "
                    "expected a constant full-window plan per function"
                )
            levels[fid] = head.level
        return _FixedModel(levels=levels)
    raise ValueError(
        f"engine='fleet' does not support policy {policy.name!r} "
        f"({type(policy).__name__}); supported: PULSE and the fixed "
        "single-variant baselines. Use engine='auto' or 'reference'."
    )


# -- fleet state -------------------------------------------------------------


def _memory_fold(counts: list[int], fps: list[float]) -> float:
    """Σ count × footprint over the footprint slots in ascending order —
    ``KeepAliveSchedule.memory_at``'s canonical fold, so both reach the
    same float."""
    total = 0.0
    for count, fp in zip(counts, fps):
        if count:
            total += count * fp
    return total


def _pop_order(
    pool: np.ndarray,
    lv: np.ndarray,
    cnt: np.ndarray,
    protect: np.ndarray,
    t_ai: np.ndarray,
    t_ip: np.ndarray,
    vmin: int,
    vmax: int,
    w_pr: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2's victims while Eq. 1's ``vmin``/``vmax`` stand still:
    (alive position, how many times that row was already picked), in
    pick order.

    Row ``p`` (of ``pool``, ascending) at level ``L`` and count ``c``
    scores ``k_j = t_ai[p, L−j] + w_pr·pr(c+j) + t_ip[p]`` once it has
    been picked ``j`` times: from ``L`` down to level 1 when
    ``protect``ed, one pick more (the drop) otherwise, and no further
    than count ``vmax`` (the next pick would move Eq. 1's max).

    The reference picks the minimum ``(Uv, fid)`` each time, and only
    the victim's own score moves. A score that fell after its pick is
    still the minimum, so it is picked again at once; the next row to
    start is the one with the smallest ``(key, fid)`` above everything
    picked so far. So the pick order is the stable sort of every
    ``(row, j)`` by (the running max of the row's ``k_0..k_j``, fid,
    ``j``) — one ``argsort`` over candidates laid out row-major.
    """
    lv_p = lv[pool]
    c_p = cnt[pool]
    n = np.minimum(lv_p + ~protect[pool], vmax - c_p + 1)
    j = np.arange(int(n.max()))
    valid = j < n[:, None]
    pr = (c_p[:, None] + j) - float(vmin)
    if vmax != vmin:
        pr /= vmax - vmin
    key = (
        t_ai[pool[:, None], np.maximum(lv_p[:, None] - j, 0)]
        + w_pr * pr
        + t_ip[pool, None]
    )
    run_max = np.maximum.accumulate(np.where(valid, key, np.inf), axis=1)
    flat = np.flatnonzero(valid)
    flat = flat[np.argsort(run_max.ravel()[flat], kind="stable")]
    return pool[flat // j.size], flat % j.size


def _flatten_prefix(
    mem: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    current: float,
    target: float,
    fps: list[float],
) -> tuple[int, np.ndarray, float]:
    """How many of a batch's pops Algorithm 2 takes before the minute's
    memory is back at ``target``, with the slot counts and memory after
    them (all the pops when it never gets there).

    Pop ``i`` moves one count from slot ``src[i]`` to ``dst[i]`` (slot
    ``len(fps)`` is "none"). When no pop frees a negative amount — the
    footprints grow with the level, as in every bundled family — each
    pop lowers memory by a footprint difference (distinct slots) far
    above the fold's rounding, so memory falls along the batch: a float
    cumsum of the freed MB finds the crossing, and the canonical
    :func:`_memory_fold` of the slot counts there and one pop earlier
    decides it, stepping on while the cumsum was a pop off. Otherwise
    the fold walks the batch from its first pop. Either way ``current``
    is the float :meth:`FleetState.memory_at` gives the counts.
    """
    n_slots = len(fps)
    pad = np.append(fps, 0.0)
    freed = pad[src] - pad[dst]
    k = 0
    if (freed >= 0.0).all():
        crossing = np.searchsorted(np.cumsum(freed), current - target)
        k = min(int(crossing) + 1, src.size)
    # The slot counts after the first k pops, with the "none" bucket
    # last, where the fold's zip with ``fps`` leaves it out.
    now = (
        np.append(mem, 0)
        + np.bincount(dst[:k], minlength=n_slots + 1)
        - np.bincount(src[:k], minlength=n_slots + 1)
    ).tolist()
    current = _memory_fold(now, fps)
    while k < src.size and current > target:
        now[int(src[k])] -= 1
        now[int(dst[k])] += 1
        k += 1
        current = _memory_fold(now, fps)
    while k > 1:  # step back while one pop fewer is at the target too
        s, d = int(src[k - 1]), int(dst[k - 1])
        now[s] += 1
        now[d] -= 1
        fewer = _memory_fold(now, fps)
        if fewer > target:
            now[s] -= 1
            now[d] += 1
            break
        k, current = k - 1, fewer
    return k, np.array(now[:n_slots], dtype=np.int64), current


class FleetState:
    """The whole fleet's columnar state, its local kernels and the global
    reducer (Algorithms 1 & 2, valve), over fids ``0..n-1``.

    The per-function state — the keep-alive ring, the inter-arrival
    estimator, the cold-start levels — is dense arrays indexed by fid.
    Everything that is *cross-function* state in the reference policy
    stack — the peak detector, the priority structure, the capacity RNG
    — lives here too, so the reducer reads the ring's memory ledger and
    alive set directly and applies its victim decisions in place.
    """

    def __init__(
        self,
        n_functions: int,
        keep_alive_window: int,
        tables: VariantTables,
        model: _PulseModel | _FixedModel,
        capacity_seed: int,
        sample_fids: np.ndarray,
    ):
        self.tables = tables
        self.model = model
        self.nv = tables.n_variants
        self.ring = RingSchedule(tables, keep_alive_window)
        if model.kind == "pulse":
            self.est: ColumnarEstimator | None = ColumnarEstimator(
                n_functions,
                model.window,
                model.local_window,
                model.normalization,
                model.mode,
            )
            self.cold_levels = np.where(model.cold_highest, self.nv - 1, 0)
            self.detector: PeakDetector | None = PeakDetector(
                memory_threshold=model.memory_threshold,
                local_window=model.local_window,
                prior_rule=model.prior_rule,
            )
            self.priority: PriorityStructure | None = PriorityStructure(
                n_functions
            )
        else:
            self.est = None
            self.cold_levels = model.levels
            self.detector = None
            self.priority = None
        # The obs session's sampled fids (ascending); empty means the
        # sampled-record paths are skipped on one attribute read.
        self.sample_fids = sample_fids
        self.capacity_rng = rng_from_seed(capacity_seed)
        self.n_forced = 0
        self.n_downgrades = 0

    def sampled_rows(self, fids: np.ndarray) -> np.ndarray:
        """Row indices of the sampled fids within a sorted fid batch —
        O(k log n) for k sampled fids, instead of masking the whole batch
        per minute."""
        s = self.sample_fids
        pos = np.searchsorted(fids, s)
        ok = pos < fids.size
        pos = pos[ok]
        return pos[fids[pos] == s[ok]]

    def begin_minute(self, minute: int) -> None:
        self.ring.begin_minute(minute)
        if self.est is not None:
            self.est.evict(minute)

    def serve(
        self,
        fids: np.ndarray,
        counts: np.ndarray,
        minute: int,
        injector: FaultInjector | None,
        obs: FleetObsSession | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Vectorized serving of one minute's invocations.

        Returns (service-time contributions, accuracy contributions,
        cold-start count); marks cold starts alive on the ring. Each
        contribution is the same float expression the reference evaluates
        per function, computed elementwise. ``obs`` (when given) receives
        full ``cold`` trace records for sampled fids — read-only on the
        engine state.
        """
        tables = self.tables
        alive = self.ring.alive_levels(fids, minute)
        cold = alive < 0
        serve_lv = np.where(cold, self.cold_levels[fids], alive)
        fam = tables.fam_idx[fids]
        warm_s = tables.warm_s[fam, serve_lv]
        rec = obs if obs is not None and self.sample_fids.size else None
        if injector is None:
            cold_part = tables.cold_s[fam, serve_lv] + (counts - 1) * warm_s
        else:
            penalty = np.zeros(len(fids))
            # repro: lint-ok[RPR009] fault-injection path only (injector
            # attached): iterates the injected cold starts of one minute,
            # bounded by the chaos scenario, not fleet cardinality
            for i in np.flatnonzero(cold).tolist():
                fid = int(fids[i])
                variant = tables.variant(int(fam[i]), int(serve_lv[i]))
                penalty[i] = injector.cold_start_penalty(
                    minute, fid, variant,
                    rec if rec is not None and rec.is_sampled(fid) else None,
                )
            cold_part = (
                tables.cold_s[fam, serve_lv] + penalty + (counts - 1) * warm_s
            )
        service = np.where(cold, cold_part, counts * warm_s)
        accuracy = counts * tables.accuracy[fam, serve_lv]
        self.ring.mark_alive(fids[cold], minute, serve_lv[cold])
        if rec is not None:
            rows = self.sampled_rows(fids)
            # repro: lint-ok[RPR009] trace-sampling path: iterates the
            # cold starts of the sampled fids only, bounded by the obs
            # session's sample size, not fleet cardinality
            for i in rows[cold[rows]].tolist():
                fid = int(fids[i])
                variant = tables.variant(int(fam[i]), int(serve_lv[i]))
                rec.record_cold(
                    minute, fid, variant.name, int(counts[i]),
                    rec.last_seen(fid),
                )
        return service, accuracy, int(cold.sum())

    def observe_and_plan(
        self,
        fids: np.ndarray,
        minute: int,
        obs: FleetObsSession | None = None,
    ) -> None:
        """Feed the estimator and install keep-alive plans for the
        minute's invoking functions. ``obs`` tallies the plan-level
        histogram, times the ``observe``/``plan`` phases and writes full
        ``plan`` records for sampled fids."""
        if self.model.kind == "fixed":
            width = self.ring.keep_alive_window
            plan = np.broadcast_to(
                self.cold_levels[fids][:, None], (len(fids), width)
            )
            self.ring.write_plans(fids, minute, plan)
            if obs is not None:
                obs.tally_plans(plan)
                if self.sample_fids.size:
                    self._record_sampled_plans(fids, minute, plan, None, obs)
            return
        est = self.est
        assert est is not None
        spans = obs.spans if obs is not None and obs.spans_enabled else None
        t0 = time.perf_counter() if spans is not None else 0.0
        est.observe(fids, minute)
        probs = est.mode_rows(est.exact_rows(fids))
        if spans is not None:
            t1 = time.perf_counter()
            spans.add("observe", t1 - t0)
        levels = _vector_levels(probs, self.nv[fids], self.model.scheme)
        no_history = est.no_history(fids)
        if no_history.any():
            # No inter-arrival data yet: behave like the fixed policy
            # (FunctionCentricOptimizer's cold_start_fallback="highest").
            levels[no_history] = (self.nv[fids[no_history]] - 1)[:, None]
        self.ring.write_plans(fids, minute, levels)
        if spans is not None:
            spans.add("plan", time.perf_counter() - t1)
        if obs is not None:
            obs.tally_plans(levels)
            if self.sample_fids.size:
                self._record_sampled_plans(
                    fids, minute, levels, probs, obs, no_history
                )

    def _record_sampled_plans(
        self,
        fids: np.ndarray,
        minute: int,
        levels: np.ndarray,
        probs: np.ndarray | None,
        obs: FleetObsSession,
        no_history: np.ndarray | None = None,
    ) -> None:
        """Full ``plan`` trace records for this batch's sampled fids.

        Mirror of FunctionCentricOptimizer: the probability vector is
        staged only when it actually drove the plan — fids with no
        inter-arrival history (``no_history``) fell back blind.
        """
        for j in self.sampled_rows(fids).tolist():
            fid = int(fids[j])
            if probs is not None and (
                no_history is None or not no_history[j]
            ):
                obs.stage_probs(fid, minute, probs[j])
            fam = int(self.tables.fam_idx[fid])
            plan = [
                None if lv < 0 else self.tables.variant(fam, int(lv))
                for lv in levels[j].tolist()
            ]
            obs.record_plan(minute, fid, plan)
            obs.note_arrival(fid, minute)

    # -- reduce: memory ------------------------------------------------------
    def memory_at(self, minute: int) -> float:
        """The fleet's keep-alive memory at ``minute`` — the canonical
        counts × footprints fold over the ring's per-slot ledger,
        bit-identical to ``KeepAliveSchedule.memory_at``."""
        return _memory_fold(
            self.ring.cnt[minute % self.ring.n_cols].tolist(),
            self.tables.slot_fps,
        )

    # -- reduce: Algorithms 1 & 2 -------------------------------------------
    def review(self, minute: int, obs: FleetObsSession | None = None) -> None:
        """The global optimizer's per-minute review over the fleet.

        Mirrors ``GlobalOptimizer.review``: detect a peak against the
        prior (Algorithm 1), then repeatedly score every kept-alive
        model's ``Uv = Ai + Pr + Ip`` and downgrade the minimum
        (Algorithm 2) until demand is back under the flatten target;
        always feed the detector demand + committed memory. ``obs``
        tallies peaks/downgrades, times the ``reduce/peak-flatten`` and
        ``reduce/downgrade`` phases, and — for sampled victims — records
        the full (capped) candidate table.

        Victims are picked in *batches*, one per stretch over which Eq.
        1's min and max counts stand still, with array operations only:

        - **selection.** Within a batch only a victim's own ``Uv``
          moves, so each eligible row's keys form a short closed-form
          sequence (one per level it can still lose). The reference's
          pick-the-minimum loop pops them in the stable order of (the
          running max of the row's own keys, fid, step) — see
          :func:`_pop_order` — so one sort gives the batch's victims
          in the reference's order (ties: lowest fid);
        - **cuts.** The batch ends at the first pop that moves Eq. 1's
          max or takes the last row off its min, and the review ends at
          the first pop whose minute memory — the canonical fold of the
          current ring column's slot counts, as in :meth:`memory_at` —
          is back at the target (:func:`_flatten_prefix`);
        - **ring and priority writes** are deferred to one
          :meth:`~repro.runtime.columnar.RingSchedule.downgrade_many` and
          one ``record_downgrades`` per review: the selection reads
          neither future ring columns nor the priority structure, and a
          victim's ``allow_drop`` is fixed within the minute.
        """
        detector, priority = self.detector, self.priority
        assert detector is not None and priority is not None
        model = self.model
        assert isinstance(model, _PulseModel)
        rec = obs if obs is not None and obs.decisions_enabled else None
        spans = obs.spans if obs is not None and obs.spans_enabled else None
        demand = self.memory_at(minute)
        prior = detector.prior_memory()
        current = demand
        if detector.is_peak(demand, prior):
            t_flatten = time.perf_counter() if spans is not None else 0.0
            target = detector.flatten_target(prior)
            if obs is not None:
                obs.tally_peak()
            if rec is not None:
                rec.record_peak(minute, demand, prior, target)
            est = self.est
            assert est is not None
            tables = self.tables
            alive = self.ring.alive_fids(minute)
            levels = self.ring.alive_levels(alive, minute)
            ip, max_rem = est.ip_and_max_remaining(alive, minute)
            ip = np.minimum(ip, 1.0)
            fam = tables.fam_idx[alive]
            weights = model.weights
            # Alg. 2 lines 4–9 on the alive table, indexed by alive
            # position: Eq. 1 over every fid's count, constant-within-
            # minute Ip/max-rem, and protection for lowest variants with
            # remaining mass. Each term is the elementwise expression
            # the reference evaluates (float64 either way).
            counts = priority.counts
            start = counts[alive]
            t_ai = weights.accuracy_improvement * tables.ai[fam]
            t_ip = weights.invocation_probability * ip
            protect = max_rem > 0.0
            allow_drop = max_rem == 0.0
            slots = tables.slot_of[fam]
            n_slots = tables.n_slots
            mem = self.ring.cnt[minute % self.ring.n_cols]
            n_down = np.zeros(alive.size, dtype=np.int64)
            if spans is not None:
                t_downgrade = time.perf_counter()
                spans.add("reduce/peak-flatten", t_downgrade - t_flatten)
            sample_mask = rec.sample_mask if rec is not None else None
            while current > target:
                lv = levels - n_down  # −1 once dropped
                pool = np.flatnonzero((lv > 0) | ((lv == 0) & ~protect))
                if not pool.size:
                    break  # every candidate is a protected lowest variant
                vmin, vmax = int(counts.min()), int(counts.max())
                cnt = start + n_down
                rows, steps = _pop_order(
                    pool, lv, cnt, protect, t_ai, t_ip, vmin, vmax,
                    weights.priority,
                )
                before = lv[rows] - steps  # each victim's level when picked
                # Eq. 1 moves at the first pop that lifts a count past
                # the max, or that takes the last count off the min
                # (only a row's first pop can start at the min).
                n_at_min = int((counts == vmin).sum())
                picked_at = cnt[rows] + steps  # each victim's count then
                cut = rows.size
                top = np.flatnonzero(picked_at == vmax)
                if top.size:
                    cut = int(top[0]) + 1
                leave = np.flatnonzero(picked_at[:cut] == vmin)
                if leave.size >= n_at_min:
                    cut = int(leave[n_at_min - 1]) + 1
                rows, before = rows[:cut], before[:cut]
                # Each pop moves one current-minute entry down a level
                # (``dst``), or drops it at level 0 when allowed; the
                # sentinel slot ``n_slots`` stands for "nothing".
                src = np.where(
                    (before > 0) | allow_drop[rows],
                    slots[rows, before],
                    n_slots,
                )
                dst = np.where(
                    before > 0,
                    slots[rows, np.maximum(before - 1, 0)],
                    n_slots,
                )
                k, mem, current = _flatten_prefix(
                    mem, src, dst, current, target, tables.slot_fps
                )
                if sample_mask is not None:
                    # A sampled victim's candidate table snapshots the
                    # scores that chose it: the batch's start state plus
                    # the ``bincount`` of the pops ahead of it.
                    taken, done = n_down.copy(), 0
                    hits = np.flatnonzero(sample_mask[alive[rows[:k]]])
                    for i in hits.tolist():
                        taken += np.bincount(rows[done:i], minlength=alive.size)
                        done = i
                        now = levels - taken
                        live = np.flatnonzero(now >= 0)
                        cand = self._candidate_table(
                            alive[live], now[live], fam[live], ip[live],
                            (start + taken)[live], float(vmin), float(vmax),
                            ~((now[live] == 0) & protect[live]), weights,
                        )
                        pick, level = int(rows[i]), int(before[i])
                        f = int(fam[pick])
                        emit_downgrade(
                            minute, int(alive[pick]),
                            tables.variant(f, level).name,
                            tables.variant(f, level - 1).name
                            if level > 0
                            else None,
                            rec, candidates=cand,
                        )
                n_down += np.bincount(rows[:k], minlength=alive.size)
                counts[alive] = start + n_down
            hit = np.flatnonzero(n_down)
            if hit.size:
                n = n_down[hit]
                self.ring.downgrade_many(alive[hit], n, allow_drop[hit])
                priority.record_downgrades(alive[hit], n)
                n_victims = int(n.sum())
                self.n_downgrades += n_victims
                if obs is not None:
                    obs.tally_downgrade(minute, n_victims)
            if spans is not None:
                spans.add("reduce/downgrade", time.perf_counter() - t_downgrade)
        detector.observe(demand, current)

    def _candidate_table(
        self,
        alive: np.ndarray,
        levels: np.ndarray,
        fam: np.ndarray,
        ip: np.ndarray,
        counts_alive: np.ndarray,
        vmin: float,
        vmax: float,
        eligible: np.ndarray,
        weights: UtilityWeights,
    ) -> list[dict]:
        """The reference trace's scored candidate table, rebuilt from the
        reducer's columnar state: one row per kept-alive model with its
        unweighted ``Ai``/``Pr``/``Ip`` terms and the weighted ``Uv``, or
        a ``protected`` marker — capped at :data:`CANDIDATE_CAP`
        lowest-``Uv`` rows (the victim is the eligible minimum, so it
        always survives the cap) with an ``omitted`` trailer row noting
        the truncation."""
        ai = self.tables.ai[fam, levels]
        if vmax == vmin:
            pr = counts_alive - vmin
        else:
            pr = (counts_alive - vmin) / (vmax - vmin)
        uv = (
            weights.accuracy_improvement * ai
            + weights.priority * pr
            + weights.invocation_probability * ip
        )
        # Protected rows sort last (inf), matching the selection mask;
        # ties stay fid-ascending like the reference loop. A full stable
        # argsort over the alive set costs O(n log n) per sampled victim
        # (~0.5 ms at 10k functions), so select the CANDIDATE_CAP head
        # with an O(n) argpartition instead, reproducing the stable
        # order exactly: rows strictly below the cap boundary value,
        # then boundary ties filled lowest-fid first (``alive`` is fid-
        # ascending, so index order is fid order).
        key = np.where(eligible, uv, np.inf)
        if key.size <= CANDIDATE_CAP:
            order = np.argsort(key, kind="stable")
        else:
            pool = np.argpartition(key, CANDIDATE_CAP - 1)[:CANDIDATE_CAP]
            boundary = key[pool].max()
            strict = np.flatnonzero(key < boundary)
            strict = strict[np.argsort(key[strict], kind="stable")]
            ties = np.flatnonzero(key == boundary)[
                : CANDIDATE_CAP - strict.size
            ]
            order = np.concatenate((strict, ties))
        rows: list[dict] = []
        for idx in order[:CANDIDATE_CAP].tolist():
            fid = int(alive[idx])
            vname = self.tables.variant(int(fam[idx]), int(levels[idx])).name
            if not eligible[idx]:
                rows.append({"fid": fid, "variant": vname, "protected": True})
            else:
                rows.append({
                    "fid": fid,
                    "variant": vname,
                    "Ai": float(ai[idx]),
                    "Pr": float(pr[idx]),
                    "Ip": float(ip[idx]),
                    "Uv": float(uv[idx]),
                })
        if alive.size > CANDIDATE_CAP:
            rows.append({"omitted": int(alive.size - CANDIDATE_CAP)})
        return rows

    # -- reduce: provider capacity valve -------------------------------------
    def valve(
        self,
        minute: int,
        capacity_mb: float,
        obs: FleetObsSession | None = None,
    ) -> int:
        """§III-A's pressure valve on the fleet's alive set.

        Byte-compatible with ``apply_capacity_valve``: the candidate
        array is the fid-ascending alive set, victims are drawn
        from the shared capacity RNG by the same ``integers`` index, and
        a victim leaves the candidate array (deleted at its drawn
        position) only when its keep-alive is dropped entirely — so the RNG
        stream (which depends on the array length sequence) matches the
        reference's exactly. ``obs`` tallies the per-minute victim count,
        times the ``reduce/valve`` phase, and records sampled victims'
        forced downgrades. The loop runs on a Python-int copy of the
        current minute's slot counts and, like :meth:`review`, writes
        the ring once.
        """
        ring = self.ring
        col = minute % ring.n_cols
        mem = ring.cnt[col].tolist()
        fps = self.tables.slot_fps
        if _memory_fold(mem, fps) <= capacity_mb:
            return 0
        rec = obs if obs is not None and obs.decisions_enabled else None
        spans = obs.spans if obs is not None and obs.spans_enabled else None
        t0 = time.perf_counter() if spans is not None else 0.0
        alive = ring.alive_fids(minute)
        sample_mask = rec.sample_mask if rec is not None else None
        fam_idx = self.tables.fam_idx
        slot_rows = self.tables.slot_of.tolist()
        # As in ``review``: the loop reads only the current minute, so it
        # tracks the victims' current levels and the column's counts in
        # Python, and the ring write waits for one batch at the end.
        level_now: dict[int, int] = {}
        n_down: dict[int, int] = {}
        forced = 0
        while _memory_fold(mem, fps) > capacity_mb and alive.size:
            at = int(self.capacity_rng.integers(0, alive.size))
            victim = int(alive[at])
            level = level_now.get(victim)
            if level is None:
                level = int(ring.levels[victim, col])
            fam = int(fam_idx[victim])
            slots = slot_rows[fam]
            mem[slots[level]] -= 1
            if level > 0:
                mem[slots[level - 1]] += 1
            level_now[victim] = level - 1
            n_down[victim] = n_down.get(victim, 0) + 1
            forced += 1
            if sample_mask is not None and sample_mask[victim]:
                emit_downgrade(
                    minute, victim, self.tables.variant(fam, level).name,
                    self.tables.variant(fam, level - 1).name
                    if level > 0
                    else None,
                    rec, forced=True,
                )
            if level == 0:
                alive = np.concatenate((alive[:at], alive[at + 1:]))
        if n_down:
            k = len(n_down)
            ring.downgrade_many(
                np.fromiter(n_down, np.int64, k),
                np.fromiter(n_down.values(), np.int64, k),
                np.ones(k, dtype=bool),
            )
        self.n_forced += forced
        if obs is not None:
            obs.tally_valve(minute, forced)
            if spans is not None:
                spans.add("reduce/valve", time.perf_counter() - t0)
        return forced


# -- threshold-scheme kernels ------------------------------------------------


def _vector_levels(
    probs: np.ndarray, n_variants: np.ndarray, scheme: ThresholdScheme
) -> np.ndarray:
    """Map probability rows to variant levels (−1 = keep nothing).

    ``probs`` is (k, W); ``n_variants`` is (k,). The closed forms are the
    schemes' own expressions evaluated elementwise (``int()`` and
    ``astype(int64)`` both truncate toward zero; every probability is
    already ≤ 1.0, so the reference's ``p if p < 1.0 else 1.0`` clamp is
    the identity).
    """
    nv = n_variants[:, None]
    if type(scheme) is TechniqueT1:
        return np.minimum((probs * nv).astype(np.int64), nv - 1)
    if type(scheme) is TechniqueT2:
        upper = nv - 1
        banded = 1 + np.minimum(
            (probs * upper).astype(np.int64), np.maximum(upper - 1, 0)
        )
        return np.where((probs == 0.0) | (nv == 1), 0, banded)
    if type(scheme) is MonotoneScheme:
        flat = np.searchsorted(np.asarray(scheme.cuts), probs.ravel(), side="right")
        return np.minimum(flat.reshape(probs.shape).astype(np.int64), nv - 1)
    # Arbitrary user scheme: fall back to scalar calls per (fid, offset).
    out = np.empty(probs.shape, dtype=np.int64)
    for i, row in enumerate(probs.tolist()):
        n = int(n_variants[i])
        for j, p in enumerate(row):
            level = scheme.select_level(p if p < 1.0 else 1.0, n)
            out[i, j] = -1 if level is None else level
    return out


# -- the engine --------------------------------------------------------------


class FleetStepper(Stepper):
    """The columnar fleet engine's run state, steppable one minute at a
    time.

    The shared core (:class:`~repro.runtime.driver.Stepper`) owns
    construction, restore, idle spans and :meth:`finalize`; a fresh
    stepper adds the compiled policy model, the variant tables and the
    columnar :class:`FleetState`, which a restore brings back in the same
    one pickle as the rest, so shared identities survive. Batch runs
    (:func:`repro.runtime.driver.drive`) feed it every minute from the
    sparse event table; sessions (:mod:`repro.serve.session`) call
    :meth:`step` one ``advance()`` at a time — the per-minute body is
    the same code either way, so a stepped replay is bit-identical to
    the batch run by construction.

    Entry validation (``measure_overhead``) stays with
    :func:`repro.runtime.driver.open_stepper`; the stepper assumes a
    config it can honor.
    """

    engine = "fleet"

    def _open_obs(self) -> FleetObsSession:
        return FleetObsSession(
            self.cfg.observe, n_functions=self.n_fn, horizon=self.horizon
        )

    def _fresh_state(self) -> None:
        cfg = self.cfg
        self.model = _compile_policy(
            self.policy, self.n_fn, cfg.keep_alive_window
        )
        self.tables = VariantTables(self.assignment, self.n_fn)
        self.fleet = FleetState(
            self.n_fn, cfg.keep_alive_window, self.tables, self.model,
            cfg.capacity_seed,
            self.obs.sample_fids
            if self.obs is not None
            else np.empty(0, dtype=np.int64),
        )

    def _derived_state(self) -> None:
        self.is_pulse = self.model.kind == "pulse"

    def _close_metrics(self, met) -> None:
        # The shared cross-engine metric names. The loop engines label
        # invocation/cold counters per function; per-function series
        # cannot scale to 100k fids, so the fleet reports the run totals
        # unlabeled, and the columnar extras after the shared gauges.
        assert self.obs is not None
        met.counter("invocations_total", "invocations served").inc(
            self.n_invocations
        )
        met.counter("cold_starts_total", "user-visible cold starts").inc(
            self.n_cold
        )
        met.counter("warm_starts_total", "invocations served warm").inc(
            self.n_warm
        )
        met.histogram(
            "keepalive_mb", "per-minute committed keep-alive memory"
        ).observe_many(self.obs.mem_series)
        super()._close_metrics(met)
        self.obs.finalize_fleet_metrics()

    @property
    def n_forced(self) -> int:
        """Capacity-valve downgrades so far."""
        return self.fleet.n_forced

    @property
    def n_warm(self) -> int:
        """Invocations served warm so far."""
        return self.n_invocations - self.n_cold

    def step(self, t: int, inv_fids: np.ndarray, inv_counts: np.ndarray) -> None:
        """Execute minute ``t``. ``inv_fids`` are the invoking function
        ids (int64, ascending) and ``inv_counts`` the aligned counts;
        pass empty arrays for an idle minute. Minutes must be fed
        strictly in order."""
        fleet = self.fleet
        obs = self.obs
        spans = self.spans
        injector = self.injector

        fleet.begin_minute(t)

        n_events = int(inv_fids.size)
        if n_events:
            # Vectorized serving, folded sequentially so the accumulators
            # match the reference's scalar adds.
            t_serve = time.perf_counter() if spans is not None else 0.0
            svc, acc, cold = fleet.serve(inv_fids, inv_counts, t, injector, obs)
            if spans is not None:
                spans.add("serve", time.perf_counter() - t_serve)
            self.n_cold += cold
            self.service_time = seq_fold(self.service_time, svc)
            self.accuracy_sum = seq_fold(self.accuracy_sum, acc)
            self.n_invocations += int(inv_counts.sum())

            # Estimator feed + plan installation, batched. (Safe to run
            # after serving: plans only write minutes t+1.., and each
            # function's estimator state is independent, so the
            # interleaved reference order and this batched order reach
            # identical state.)
            fleet.observe_and_plan(inv_fids, t, obs)

        # Cross-function review (peak flattening) over the fleet.
        if self.is_pulse:
            if self.model.enable_global:
                fleet.review(t, obs)
            else:
                assert fleet.detector is not None
                fleet.detector.observe(fleet.memory_at(t))

        # Provider pressure valve over the fleet.
        if self.valve_on:
            cap_t = (
                self.capacity
                if injector is None
                else injector.effective_capacity(t, self.capacity)
            )
            if cap_t is not None:
                fleet.valve(t, cap_t, obs)

        # Commit the minute.
        mem_t = fleet.memory_at(t)
        self.total_mb_minutes += mem_t
        if obs is not None:
            obs.tally_memory(t, mem_t)
        if self.mem_series is not None:
            self.mem_series[t] = mem_t
        if self.ideal_series is not None and n_events:
            # repro: lint-ok[RPR009] same expression, operand dtype and
            # operand order as the reference engine's ideal-series sum, so
            # numpy's pairwise reduction is bitwise-identical across
            # engines; pinned by the golden equivalence tests
            self.ideal_series[t] = self.tables.highest_mb[inv_fids].sum()
        self.last_memory_mb = mem_t
        self.next_minute = t + 1
