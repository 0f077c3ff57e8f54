"""The fleet engine: vectorized simulation of 10⁴–10⁵ functions.

The reference loop (:mod:`repro.runtime.simulator`) and the event-driven
fast path (:mod:`repro.runtime.fastpath`) both iterate Python objects per
(function, minute); at fleet scale that is the bottleneck. This engine
keeps all per-function state in numpy arrays over fids ``0..n-1``
(:mod:`repro.runtime.columnar`), held by one :class:`FleetState`, and
runs the per-minute cycle as array kernels:

1. **serve / observe / plan**: serve the minute's invocations (cold/warm
   split, service-time and accuracy contributions), feed the
   inter-arrival estimator, map probabilities through the threshold
   scheme and install the keep-alive plans — all batched over the
   minute's invoking fids;
2. **reduce**: the *global* stages read the keep-alive ring's integer
   memory ledger and alive set directly — Algorithm 1 peak detection,
   Algorithm 2 lowest-utility downgrades, and the provider capacity
   valve — and apply victim decisions as scalar schedule edits.

PULSE's cross-function stage is global by design, and it dominates a
minute at fleet scale (traced at 10k functions on a 2-vCPU host, the
reducer took ~80% of each simulated minute), so the state is not
partitioned: one fid space, one reducer, bit-identical to the reference
engine (pinned by ``tests/test_engine_fleet.py``).

Two execution modes, chosen by the config:

- **lean** (``track_containers=False``, ``record_events=False``): fully
  vectorized serving; floats that the reference accumulates sequentially
  are folded with :func:`~repro.runtime.columnar.seq_fold` so the sums
  stay bit-identical. This is the fleet-scale mode.
- **compatibility** (container pool and/or event log on): the engine
  drives the real :class:`~repro.runtime.container.ContainerPool` and
  :class:`~repro.runtime.events.EventLog` in the reference loop's exact
  call order — a per-fid Python loop, so it scales like the reference —
  while planning stays columnar. Use it for parity checks and
  event-level analysis, not for 100k-function sweeps.

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

Checkpoint/resume works as on the other engines: the shared batch
driver (:mod:`repro.runtime.driver`) snapshots :meth:`FleetStepper.live_state`
before the first event group of each cadence bucket, and a resumed run
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
from repro.runtime.events import EventKind, EventLog
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
    else must run on the reference or fast engine.
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
            if (
                head is None
                or len(plan) != keep_alive_window
                or any(v is not head and v != head for v in plan)
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
        "single-variant baselines. Use engine='auto', 'reference' or 'fast'."
    )


# -- fleet state -------------------------------------------------------------


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
        """Vectorized serving of one minute's invocations (lean mode).

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
                    None,
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
        minute's invoking functions (both modes — planning is columnar
        even when serving is scalar). ``obs`` tallies the plan-level
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

    def level_at(self, fid: int, minute: int) -> int:
        return int(self.ring.levels[fid, minute % self.ring.n_cols])

    def variant_at(self, fid: int, minute: int):
        level = self.level_at(fid, minute)
        if level < 0:
            return None
        return self.tables.variant(int(self.tables.fam_idx[fid]), level)

    # -- reduce: memory ------------------------------------------------------
    def memory_at(self, minute: int) -> float:
        """The fleet's keep-alive memory at ``minute`` — the canonical
        counts × footprints fold over the ring's per-slot ledger,
        bit-identical to ``KeepAliveSchedule.memory_at``."""
        counts = self.ring.cnt[minute % self.ring.n_cols]
        total = 0.0
        fps = self.tables.slot_fps
        for slot in np.flatnonzero(counts).tolist():
            total += int(counts[slot]) * fps[slot]
        return total

    # -- reduce: Algorithms 1 & 2 -------------------------------------------
    def review(
        self,
        minute: int,
        events: EventLog | None,
        obs: FleetObsSession | None = None,
    ) -> None:
        """The global optimizer's per-minute review over the fleet.

        Mirrors ``GlobalOptimizer.review``: detect a peak against the
        prior (Algorithm 1), then repeatedly score every kept-alive
        model's ``Uv = Ai + Pr + Ip`` and downgrade the minimum
        (Algorithm 2) until demand is back under the flatten target;
        always feed the detector demand + committed memory. ``obs``
        tallies peaks/downgrades, times the ``reduce/peak-flatten`` and
        ``reduce/downgrade`` phases, and — for sampled victims — records
        the full (capped) candidate table.
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
            alive = self.ring.alive_fids(minute)
            levels = self.ring.alive_levels(alive, minute)
            ip, max_rem = est.ip_and_max_remaining(alive, minute)
            ip = np.minimum(ip, 1.0)
            fam = self.tables.fam_idx[alive]
            weights = model.weights
            w_ai = weights.accuracy_improvement
            w_pr = weights.priority
            # Alg. 2 lines 4–9 on the alive table: per-iteration
            # re-normalization, constant-within-minute Ip/max-rem,
            # protection for lowest variants with remaining mass. A naive
            # transliteration rebuilds every utility term over all n
            # functions per victim, which goes quadratic exactly when the
            # valve/peak regime produces many victims per minute; instead
            # each per-element term is maintained incrementally (only the
            # victim's entry changes between iterations) and Eq. 1's
            # min/max are tracked against a full-count mirror so the
            # normalization stays bit-identical to
            # ``PriorityStructure.normalized()[alive]``.
            counts = priority.counts.astype(float)
            counts_alive = counts[alive]
            vmin = float(counts.min())
            vmax = float(counts.max())
            n_at_min = int((counts == vmin).sum())
            t_ai = w_ai * self.tables.ai[fam, levels]
            t_ip = weights.invocation_probability * ip
            eligible = ~((levels == 0) & (max_rem > 0.0))
            # Only the victim's utility entry moves between iterations
            # unless Eq. 1's min/max shift (rare: the global floor or
            # ceiling of the downgrade counts must move), so the masked
            # utility array is patched in place and rebuilt only then.
            rebuild = True
            uv_masked = np.empty(0)
            if spans is not None:
                t_downgrade = time.perf_counter()
                spans.add("reduce/peak-flatten", t_downgrade - t_flatten)
            # Per-victim obs cost must stay O(1) attribute reads — a
            # hook call per downgrade is what the columnar session
            # exists to avoid — so the tally is accumulated locally and
            # folded once per review, and the sample test reads the
            # mask directly.
            sample_mask = rec.sample_mask if rec is not None else None
            n_tallied = 0
            while current > target and alive.size:
                if rebuild:
                    if vmax == vmin:
                        pr = counts_alive - vmin
                    else:
                        pr = (counts_alive - vmin) / (vmax - vmin)
                    # np.inf masking picks the first eligible minimum —
                    # the same element flatnonzero+argmin over the
                    # eligible subset picks.
                    uv_masked = np.where(
                        eligible, t_ai + w_pr * pr + t_ip, np.inf
                    )
                    rebuild = False
                pick = int(np.argmin(uv_masked))
                if np.isinf(uv_masked[pick]):
                    break  # every candidate is a protected lowest variant
                victim = int(alive[pick])
                allow_drop = bool(max_rem[pick] == 0.0)
                victim_rec = (
                    rec
                    if sample_mask is not None and sample_mask[victim]
                    else None
                )
                record = events is not None or victim_rec is not None
                if record:
                    new_level = int(levels[pick]) - 1
                    from_name = self.tables.variant(
                        int(fam[pick]), int(levels[pick])
                    ).name
                    to_name = (
                        self.tables.variant(int(fam[pick]), new_level).name
                        if new_level >= 0
                        else None
                    )
                    # The candidate table snapshots the scores that chose
                    # this victim, so it is built before the priority
                    # bookkeeping below perturbs Eq. 1's normalization.
                    cand = (
                        self._candidate_table(
                            alive, levels, fam, ip, counts_alive,
                            vmin, vmax, eligible, model.weights,
                        )
                        if victim_rec is not None
                        else None
                    )
                self.ring.downgrade(victim, minute, allow_drop)
                priority.record_downgrade(victim)
                new_count = counts[victim] + 1.0
                counts[victim] = new_count
                counts_alive[pick] = new_count
                if new_count > vmax:
                    vmax = new_count
                    rebuild = True
                if new_count - 1.0 == vmin:
                    n_at_min -= 1
                    if n_at_min == 0:  # rare: the global floor moved up
                        vmin = float(counts.min())
                        n_at_min = int((counts == vmin).sum())
                        rebuild = True
                self.n_downgrades += 1
                n_tallied += 1
                if record:
                    emit_downgrade(
                        minute, victim, from_name, to_name, events,
                        victim_rec, candidates=cand,
                    )
                if levels[pick] > 0:
                    levels[pick] -= 1
                    t_ai[pick] = w_ai * self.tables.ai[fam[pick], levels[pick]]
                    eligible[pick] = not (
                        levels[pick] == 0 and max_rem[pick] > 0.0
                    )
                    if not rebuild:
                        if vmax == vmin:
                            pr_pick = counts_alive[pick] - vmin
                        else:
                            pr_pick = (counts_alive[pick] - vmin) / (
                                vmax - vmin
                            )
                        uv_masked[pick] = (
                            t_ai[pick] + w_pr * pr_pick + t_ip[pick]
                            if eligible[pick]
                            else np.inf
                        )
                else:
                    keep = np.arange(alive.size) != pick
                    alive, levels, ip = alive[keep], levels[keep], ip[keep]
                    max_rem, fam = max_rem[keep], fam[keep]
                    counts_alive, t_ai = counts_alive[keep], t_ai[keep]
                    t_ip, eligible = t_ip[keep], eligible[keep]
                    if not rebuild:
                        uv_masked = uv_masked[keep]
                current = self.memory_at(minute)
            if obs is not None and n_tallied:
                obs.tally_downgrade(minute, n_tallied)
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
        events: EventLog | None,
        obs: FleetObsSession | None = None,
    ) -> int:
        """§III-A's pressure valve on the fleet's alive set.

        Byte-compatible with ``apply_capacity_valve``: the candidate
        array is the fid-ascending alive set, victims are drawn
        from the shared capacity RNG, and a victim leaves the candidate
        array only when its keep-alive is dropped entirely — so the RNG
        stream (which depends on the array length sequence) matches the
        reference's exactly. ``obs`` tallies the per-minute victim count,
        times the ``reduce/valve`` phase, and records sampled victims'
        forced downgrades.
        """
        if self.memory_at(minute) <= capacity_mb:
            return 0
        rec = obs if obs is not None and obs.decisions_enabled else None
        spans = obs.spans if obs is not None and obs.spans_enabled else None
        t0 = time.perf_counter() if spans is not None else 0.0
        alive = self.ring.alive_fids(minute)
        sample_mask = rec.sample_mask if rec is not None else None
        forced = 0
        while self.memory_at(minute) > capacity_mb and alive.size:
            victim = int(self.capacity_rng.choice(alive))
            victim_rec = (
                rec
                if sample_mask is not None and sample_mask[victim]
                else None
            )
            record = events is not None or victim_rec is not None
            if record:
                from_name = self.tables.variant(
                    int(self.tables.fam_idx[victim]),
                    self.level_at(victim, minute),
                ).name
            self.ring.downgrade(victim, minute, allow_drop=True)
            forced += 1
            level = self.level_at(victim, minute)
            if record:
                to_name = (
                    self.tables.variant(int(self.tables.fam_idx[victim]), level).name
                    if level >= 0
                    else None
                )
                emit_downgrade(
                    minute, victim, from_name, to_name, events, victim_rec,
                    forced=True,
                )
            if level < 0:
                alive = alive[alive != victim]
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

    def live_state(self) -> dict:
        """The columnar state graph, in session-snapshot payload shape
        (one dict → one pickle, identities preserved)."""
        return {
            "policy": self.policy,
            "events": self.events,
            "obs": self.obs,
            "model": self.model,
            "tables": self.tables,
            "fleet": self.fleet,
            "pool": self.pool,
            "injector": self.injector,
            "service_time": self.service_time,
            "accuracy_sum": self.accuracy_sum,
            "n_invocations": self.n_invocations,
            "n_cold": self.n_cold,
            "total_mb_minutes": self.total_mb_minutes,
            "mem_series": self.mem_series,
            "ideal_series": self.ideal_series,
            "n_checkpoints": self.n_checkpoints,
        }

    def step(self, t: int, inv_fids: np.ndarray, inv_counts: np.ndarray) -> None:
        """Execute minute ``t``. ``inv_fids`` are the invoking function
        ids (int64, ascending) and ``inv_counts`` the aligned counts;
        pass empty arrays for an idle minute. Minutes must be fed
        strictly in order."""
        fleet = self.fleet
        tables = self.tables
        pool = self.pool
        events = self.events
        obs = self.obs
        rec = self.rec
        spans = self.spans
        injector = self.injector
        model = self.model
        n_fn = self.n_fn
        service_time = self.service_time
        accuracy_sum = self.accuracy_sum
        n_cold = self.n_cold

        fleet.begin_minute(t)

        if pool is not None:
            # Pre-warm pass (reference order: every fid, ascending).
            t_pool = time.perf_counter() if spans is not None else 0.0
            # repro: lint-ok[RPR009] compat mode only (a reference
            # ContainerPool is attached): golden-equivalence runs mirror
            # the reference loop's per-fid reconcile; the lean fleet path
            # has pool=None and never enters this branch
            for fid in range(n_fn):
                pool.reconcile(fid, fleet.variant_at(fid, t), t)
            if spans is not None:
                spans.add("pool-reconcile", time.perf_counter() - t_pool)

        n_events = int(inv_fids.size)
        if n_events:
            if pool is None and events is None:
                # Lean serving: vectorized, folded sequentially so the
                # accumulators match the reference's scalar adds.
                t_serve = time.perf_counter() if spans is not None else 0.0
                svc, acc, cold = fleet.serve(
                    inv_fids, inv_counts, t, injector, obs
                )
                if spans is not None:
                    spans.add("serve", time.perf_counter() - t_serve)
                n_cold += cold
                service_time = seq_fold(service_time, svc)
                accuracy_sum = seq_fold(accuracy_sum, acc)
            else:
                # Compatibility serving: the reference loop's exact call
                # and event order, per invoking fid ascending.
                # repro: lint-ok[RPR009] compat mode only (pool or event
                # log attached): replays the reference loop's exact
                # per-event order for golden equivalence; the lean path
                # takes the vectorized branch above
                for i in range(n_events):
                    fid = int(inv_fids[i])
                    count = int(inv_counts[i])
                    level = fleet.level_at(fid, t)
                    if level < 0:
                        cold_level = int(fleet.cold_levels[fid])
                        variant = tables.variant(
                            int(tables.fam_idx[fid]), cold_level
                        )
                        fid_rec = (
                            rec
                            if rec is not None and rec.is_sampled(fid)
                            else None
                        )
                        if injector is None:
                            service_time += (
                                variant.cold_service_time_s
                                + (count - 1) * variant.warm_service_time_s
                            )
                        else:
                            service_time += (
                                variant.cold_service_time_s
                                + injector.cold_start_penalty(
                                    t, fid, variant, fid_rec, events
                                )
                                + (count - 1) * variant.warm_service_time_s
                            )
                        n_cold += 1
                        accuracy_sum += count * variant.accuracy
                        if fid_rec is not None:
                            fid_rec.record_cold(
                                t, fid, variant.name, count,
                                fid_rec.last_seen(fid),
                            )
                        fleet.ring.mark_alive_one(fid, t, cold_level)
                        if pool is not None:
                            pool.cold_start(fid, variant, t)
                            pool.record_served(fid, count)
                        if events is not None:
                            events.emit(
                                t, EventKind.COLD_START, fid, variant.name, 1
                            )
                            if count > 1:
                                events.emit(
                                    t,
                                    EventKind.WARM_START,
                                    fid,
                                    variant.name,
                                    count - 1,
                                )
                    else:
                        variant = tables.variant(int(tables.fam_idx[fid]), level)
                        service_time += count * variant.warm_service_time_s
                        accuracy_sum += count * variant.accuracy
                        if pool is not None:
                            pool.record_served(fid, count)
                        if events is not None:
                            events.emit(
                                t, EventKind.WARM_START, fid, variant.name, count
                            )
            self.n_invocations += int(inv_counts.sum())

            # Estimator feed + plan installation — batched in both modes.
            # (Safe to run after the serve loop: plans only write minutes
            # t+1.., and each function's estimator state is independent,
            # so the interleaved reference order and this batched order
            # reach identical state.)
            fleet.observe_and_plan(inv_fids, t, obs)

        # Cross-function review (peak flattening) over the fleet.
        if self.is_pulse:
            if model.enable_global:
                fleet.review(t, events, obs)
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
                fleet.valve(t, cap_t, events, obs)

        # Commit the minute.
        if pool is not None:
            t_pool = time.perf_counter() if spans is not None else 0.0
            # repro: lint-ok[RPR009] compat mode only (a reference
            # ContainerPool is attached): the commit-side mirror of the
            # pre-warm reconcile above; pool=None on the lean fleet path
            for fid in range(n_fn):
                pool.reconcile(fid, fleet.variant_at(fid, t), t)
            pool.tick_all()
            if spans is not None:
                spans.add("pool-reconcile", time.perf_counter() - t_pool)
        mem_t = fleet.memory_at(t)
        self.total_mb_minutes += mem_t
        if obs is not None:
            obs.tally_memory(t, mem_t)
        if events is not None:
            events.emit(t, EventKind.MEMORY_COMMIT, value=mem_t)
        if self.mem_series is not None:
            self.mem_series[t] = mem_t
        if self.ideal_series is not None and n_events:
            # repro: lint-ok[RPR009] same expression, operand dtype and
            # operand order as the reference engine's ideal-series sum, so
            # numpy's pairwise reduction is bitwise-identical across
            # engines; pinned by the golden equivalence tests
            self.ideal_series[t] = tables.highest_mb[inv_fids].sum()

        self.service_time = service_time
        self.accuracy_sum = accuracy_sum
        self.n_cold = n_cold
        self.last_memory_mb = mem_t
        self.next_minute = t + 1
