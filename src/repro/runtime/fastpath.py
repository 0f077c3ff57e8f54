"""Event-driven fast path through the simulation engine.

The reference stepper (:class:`repro.runtime.simulator.ReferenceStepper`)
executes every minute of the horizon and, per minute, reconciles the
container pool, runs the policy review and queries the schedule — even on
minutes where nothing invokes. On realistic traces most of that work is
idle overhead: the schedule can only change at minutes with invocations
(plans), during a policy review that actually flattens a peak, or under
the capacity pressure valve.

This module exploits that. :class:`FastStepper` adds the per-minute
semantics to the shared stepper core
(:class:`~repro.runtime.driver.Stepper`): :meth:`~FastStepper.step`
serves/plans one event minute reading the schedule's entry maps
directly, and
:meth:`~FastStepper.idle_span` accounts a run of idle minutes
analytically from the schedule's incremental per-minute memory ledger
(``KeepAliveSchedule.memory_slice``) — the ledger between two events is
already fully determined by the plans installed at or before the
earlier event. The shared batch driver
(:func:`repro.runtime.driver.drive`) feeds it the trace's event minutes
group by group and hands each idle gap over as one span, so spans are
accounted in bulk.

Incremental sessions (:mod:`repro.serve.session`) drive the same stepper
one ``step`` per minute. Eager per-minute idle accounting and bulk
accounting perform the same float operations in the same order (the
bulk path is itself an in-order per-minute walk of the ledger slice), so
a stepped replay stays bit-identical to the batch run. Checkpoints come
from the driver's hook, as on every engine: before the first event group
of each cadence bucket, with the idle span before it still unaccounted.

Per-minute work survives only where semantics demand it: the container
pool charges warm minutes each minute, policies with a review stage
(PULSE, MILP) feed their peak detector each minute via the O(1)
:meth:`~repro.runtime.policy.KeepAlivePolicy.idle_review` hook (falling
back to the full review exactly on peak minutes), and the capacity
valve checks the ledger each minute (O(1) per check). The schedule is
never pruned mid-run: the reference loop pays an ``advance()`` per
minute to forget past entries, but the fast loop's reads are all keyed
by exact minute, so stale entries are simply left in place (memory stays
bounded by the total number of planned entries, ~invocations x window).

Metric equivalence with the reference loop is bit-exact — the floating
point accumulations happen in the same order over the same values — and
pinned by the golden test in ``tests/test_engine_fastpath.py`` across all
bundled policies with events/capacity on and off. The only excluded
fields are ``policy_overhead_s`` / ``n_policy_decisions`` (wall-clock
measurements; ``measure_overhead=True`` runs never dispatch here) and
``wall_clock_s``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.runtime.driver import Stepper
from repro.runtime.events import EventKind
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.schedule import KeepAliveSchedule
from repro.runtime.simulator import apply_capacity_valve
from repro.utils.rng import rng_from_seed

__all__ = ["FastStepper"]


def _policy_has_review(policy: KeepAlivePolicy) -> bool:
    """True when the policy overrides review_minute (needs the per-minute
    review cadence); the no-op base implementation can be skipped wholesale."""
    return type(policy).review_minute is not KeepAlivePolicy.review_minute


class FastStepper(Stepper):
    """The fast engine's run state, steppable one minute at a time.

    The shared core (:class:`~repro.runtime.driver.Stepper`) owns
    construction, restore and :meth:`finalize`; this class adds the
    schedule-reading :meth:`step` and the bulk :meth:`idle_span`.
    ``next_minute`` is the first minute not yet accounted. The batch
    driver jumps event minute to event minute and back-fills idle spans
    in bulk; sessions call :meth:`step` for every minute in order. Both
    produce the same accumulations in the same order.
    """

    engine = "fast"

    def _fresh_state(self) -> None:
        self.schedule = KeepAliveSchedule(
            self.n_fn, self.cfg.keep_alive_window, horizon_hint=self.horizon
        )
        self.n_warm = 0
        self.capacity_rng = rng_from_seed(self.cfg.capacity_seed)
        self.n_forced = 0
        self.last_arrival: list[int | None] = (
            [None] * self.n_fn if self.rec is not None else []
        )

    def _derived_state(self) -> None:
        # The instrumentation mirrors the reference loop exactly — same
        # counters, same record points — so traces are engine-independent.
        n_fn, met = self.n_fn, self.met
        if met is not None:
            _inv = met.counter("invocations_total", "invocations served")
            _cold = met.counter("cold_starts_total", "user-visible cold starts")
            self.inv_counters = [_inv.labels(function=f) for f in range(n_fn)]
            self.cold_counters = [_cold.labels(function=f) for f in range(n_fn)]
            self.warm_counter = met.counter(
                "warm_starts_total", "invocations served warm"
            ).labels()
            self.mem_metric = met.histogram(
                "keepalive_mb", "per-minute committed keep-alive memory"
            )
            self.mem_hist = self.mem_metric.summary()
        else:
            self.inv_counters = self.cold_counters = None
            self.warm_counter = self.mem_metric = self.mem_hist = None
        self.highest_mb = np.array(
            [self.assignment[fid].highest.memory_mb for fid in range(n_fn)]
        )
        self.has_review = _policy_has_review(self.policy)
        self.entries = self.schedule._entries  # direct read on the hot path
        self.has_observe = (
            type(self.policy).observe_invocation
            is not KeepAlivePolicy.observe_invocation
        )
        # The bulk idle-span accounting is valid only when nothing can
        # touch the schedule or need per-minute callbacks between events.
        self.per_minute_idle = (
            self.pool is not None
            or self.has_review
            or self.valve_on
            or self.events is not None
        )
        # In the same configuration, the event-minute commit collapses to
        # a single ledger read.
        self.simple_commit = not self.per_minute_idle

    @property
    def last_memory_mb(self) -> float:
        """The keep-alive memory committed for the last accounted minute
        (read off the schedule ledger, which keeps every minute)."""
        t = self.next_minute - 1
        return float(self.schedule.memory_at(t)) if t >= 0 else 0.0

    def live_state(self) -> dict:
        """The loop's live objects, in the checkpoint-payload shape.

        One dict → one pickle: shared identities (policy plan cache <->
        schedule, events <-> pool) survive the round trip intact.
        """
        return {
            "policy": self.policy,
            "events": self.events,
            "obs": self.obs,
            "schedule": self.schedule,
            "pool": self.pool,
            "service_time": self.service_time,
            "accuracy_sum": self.accuracy_sum,
            "n_invocations": self.n_invocations,
            "n_warm": self.n_warm,
            "n_cold": self.n_cold,
            "total_mb_minutes": self.total_mb_minutes,
            "mem_series": self.mem_series,
            "ideal_series": self.ideal_series,
            "capacity_rng": self.capacity_rng,
            "n_forced": self.n_forced,
            "injector": self.injector,
            "n_checkpoints": self.n_checkpoints,
            "last_arrival": self.last_arrival,
        }

    def _commit_minute(self, t: int) -> None:
        """Review/valve/commit for one minute (t already served, plans in)."""
        policy = self.policy
        schedule = self.schedule
        pool = self.pool
        events = self.events
        entries = self.entries
        n_fn = self.n_fn
        if self.has_review:
            policy.review_minute(t, schedule)
        if self.valve_on:
            cap_t = (
                self.capacity
                if self.injector is None
                else self.injector.effective_capacity(t, self.capacity)
            )
            if cap_t is not None:
                self.n_forced += apply_capacity_valve(
                    schedule, t, cap_t, self.capacity_rng, self.assignment,
                    events, self.rec,
                )
        if pool is not None:
            if self.spans is None:
                for fid in range(n_fn):
                    pool.reconcile(fid, entries[fid].get(t), t)
            else:
                s0 = perf_counter()
                for fid in range(n_fn):
                    pool.reconcile(fid, entries[fid].get(t), t)
                self.spans.add("pool-reconcile", perf_counter() - s0)
            pool.tick_all()
        mem_t = schedule.memory_at(t)
        self.total_mb_minutes += mem_t
        if events is not None:
            events.emit(t, EventKind.MEMORY_COMMIT, value=mem_t)
        if self.met is not None:
            self.mem_hist.observe(mem_t)
        if self.mem_series is not None:
            self.mem_series[t] = mem_t

    def idle_span(self, start: int, stop: int) -> None:
        """Account minutes ``start .. stop-1`` (no invocations there).

        Advances ``next_minute`` to ``stop``: after a span the stepper's
        position is past every minute it accounted."""
        if start >= stop:
            return
        self.next_minute = stop
        schedule = self.schedule
        if not self.per_minute_idle:
            # Pure accounting: the ledger for the span is already final.
            values = schedule.memory_slice(start, stop)
            acc = self.total_mb_minutes
            for v in values:
                acc += v
            self.total_mb_minutes = acc
            if self.met is not None:
                # Same per-minute observations the reference loop makes,
                # in the same order — summaries merge identically.
                self.mem_metric.observe_many(values)
            if self.mem_series is not None:
                self.mem_series[start:stop] = values
            return
        policy = self.policy
        pool = self.pool
        events = self.events
        entries = self.entries
        n_fn = self.n_fn
        has_review = self.has_review
        valve_on = self.valve_on
        injector = self.injector
        capacity = self.capacity
        memory_at = schedule.memory_at
        for t in range(start, stop):
            if pool is not None:
                for fid in range(n_fn):
                    pool.reconcile(fid, entries[fid].get(t), t)
            if has_review and policy.idle_review(t, schedule):
                policy.review_minute(t, schedule)
            if valve_on:
                cap_t = (
                    capacity
                    if injector is None
                    else injector.effective_capacity(t, capacity)
                )
                if cap_t is not None:
                    self.n_forced += apply_capacity_valve(
                        schedule, t, cap_t, self.capacity_rng,
                        self.assignment, events, self.rec,
                    )
            if pool is not None:
                if has_review or valve_on:
                    # review/valve may have rewritten this minute's entries
                    for fid in range(n_fn):
                        pool.reconcile(fid, entries[fid].get(t), t)
                pool.tick_all()
            mem_t = memory_at(t)
            self.total_mb_minutes += mem_t
            if events is not None:
                events.emit(t, EventKind.MEMORY_COMMIT, value=mem_t)
            if self.met is not None:
                self.mem_hist.observe(mem_t)
            if self.mem_series is not None:
                self.mem_series[t] = mem_t

    def step(self, t: int, fids: np.ndarray, fid_counts: np.ndarray) -> None:
        """Account exactly minute ``t``. An event minute (>= 1
        invocation) pre-warms, serves and plans each invoking fid in
        ascending order, then reviews/valves/commits the minute; an idle
        minute (empty ``fids``) is a one-minute :meth:`idle_span`. All
        minutes before ``t`` must already be accounted."""
        if fids.size == 0:
            self.idle_span(t, t + 1)
            return
        policy = self.policy
        schedule = self.schedule
        pool = self.pool
        events = self.events
        entries = self.entries
        rec, met = self.rec, self.met
        injector = self.injector
        last_arrival = self.last_arrival
        n_fn = self.n_fn
        service_time = self.service_time
        accuracy_sum = self.accuracy_sum
        n_invocations = self.n_invocations
        n_warm = self.n_warm
        n_cold = self.n_cold
        has_observe = self.has_observe
        observe_invocation = policy.observe_invocation
        plan_fn = policy.plan
        set_plan = schedule.set_plan

        if pool is not None:  # pre-warm pass before invocations arrive
            if self.spans is None:
                for fid in range(n_fn):
                    pool.reconcile(fid, entries[fid].get(t), t)
            else:
                s0 = perf_counter()
                for fid in range(n_fn):
                    pool.reconcile(fid, entries[fid].get(t), t)
                self.spans.add("pool-reconcile", perf_counter() - s0)

        for fid, count in zip(fids.tolist(), fid_counts.tolist()):
            alive = entries[fid].get(t)
            if alive is None:
                variant = policy.cold_variant(fid, t)
                if injector is None:
                    service_time += (
                        variant.cold_service_time_s
                        + (count - 1) * variant.warm_service_time_s
                    )
                else:
                    service_time += (
                        variant.cold_service_time_s
                        + injector.cold_start_penalty(t, fid, variant, rec, events)
                        + (count - 1) * variant.warm_service_time_s
                    )
                n_cold += 1
                n_warm += count - 1
                accuracy_sum += count * variant.accuracy
                schedule.mark_alive(fid, t, variant)
                if pool is not None:
                    pool.cold_start(fid, variant, t)
                    pool.record_served(fid, count)
                if events is not None:
                    events.emit(t, EventKind.COLD_START, fid, variant.name, 1)
                    if count > 1:
                        events.emit(
                            t, EventKind.WARM_START, fid, variant.name, count - 1
                        )
                if rec is not None:
                    rec.record_cold(t, fid, variant.name, count, last_arrival[fid])
                if met is not None:
                    self.cold_counters[fid].inc()
                    if count > 1:
                        self.warm_counter.inc(count - 1)
            else:
                service_time += count * alive.warm_service_time_s
                n_warm += count
                accuracy_sum += count * alive.accuracy
                if pool is not None:
                    pool.record_served(fid, count)
                if events is not None:
                    events.emit(t, EventKind.WARM_START, fid, alive.name, count)
                if met is not None:
                    self.warm_counter.inc(count)
            n_invocations += count
            if met is not None:
                self.inv_counters[fid].inc(count)

            if has_observe:
                observe_invocation(fid, t, count)
            if rec is None:
                set_plan(fid, t, plan_fn(fid, t))
            else:
                plan = plan_fn(fid, t)
                set_plan(fid, t, plan)
                rec.record_plan(t, fid, plan)
                last_arrival[fid] = t

        self.service_time = service_time
        self.accuracy_sum = accuracy_sum
        self.n_invocations = n_invocations
        self.n_warm = n_warm
        self.n_cold = n_cold

        if self.simple_commit:
            mem_t = schedule.memory_at(t)
            self.total_mb_minutes += mem_t
            if met is not None:
                self.mem_hist.observe(mem_t)
            if self.mem_series is not None:
                self.mem_series[t] = mem_t
        else:
            self._commit_minute(t)
        if self.ideal_series is not None:
            self.ideal_series[t] = self.highest_mb[fids].sum()
        self.next_minute = t + 1
