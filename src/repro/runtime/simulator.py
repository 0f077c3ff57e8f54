"""The simulation engine.

Drives one keep-alive policy over one trace with one model-to-function
assignment, at minute resolution, and produces a
:class:`~repro.runtime.metrics.RunResult`.

Per-minute order of operations (§5 of DESIGN.md):

1. serve each function's invocations — warm if the schedule has a variant
   alive at this minute (or a cold start earlier in the same minute left a
   container up), cold otherwise with the policy's chosen variant;
2. feed the invocation to the policy and install its new keep-alive plan
   for the next K minutes;
3. run the policy's cross-function review (PULSE flattens peaks here by
   rewriting schedule entries for the current and future minutes);
4. reconcile the container pool, commit the minute's keep-alive memory to
   the ledger and accumulate cost.

The *ideal* memory series (Figure 6b's reference) is accounted alongside:
a container of the assigned family's highest variant alive exactly during
invocation minutes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.faults.plan import FaultPlan
from repro.models.variants import ModelFamily
from repro.obs.session import ObservabilityConfig, ObsSession
from repro.runtime.checkpoint import CheckpointConfig, SimulationState
from repro.runtime.costmodel import CostModel
from repro.runtime.driver import Stepper, drive, open_stepper
from repro.runtime.events import EventKind, EventLog
from repro.runtime.metrics import RunResult
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.schedule import KeepAliveSchedule
from repro.traces.schema import Trace
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive_int

__all__ = [
    "ReferenceStepper",
    "Simulation",
    "SimulationConfig",
    "apply_capacity_valve",
    "emit_downgrade",
]


def emit_downgrade(
    minute: int,
    victim: int,
    from_name: str,
    to_name: str | None,
    events: EventLog | None,
    obs: ObsSession | None,
    *,
    forced: bool = False,
    candidates: list[dict] | None = None,
) -> None:
    """One downgrade's telemetry — the DOWNGRADE event plus the decision
    trace record — in one place, shared by every emit site.

    The capacity valve below, the fleet reducer's Algorithm 2 and its
    valve all funnel through this helper, so the event stream shape
    (``value=1.0`` marks a forced valve victim, ``0.0`` an Algorithm-2
    one — matching ``GlobalOptimizer.review``'s emissions) and the
    record schema cannot drift between engines. Pass ``obs=None`` to
    skip the trace record (e.g. fleet victims outside the trace sample).
    """
    if events is not None:
        # repro: lint-ok[RPR002] DOWNGRADE is emitted only here and in
        # GlobalOptimizer.review; every engine funnels through one of the two
        events.emit(minute, EventKind.DOWNGRADE, victim, to_name,
                    1.0 if forced else 0.0)
    if obs is not None:
        # repro: lint-ok[RPR002] record_downgrade fires only here and in
        # GlobalOptimizer.review; every engine funnels through one of the two
        obs.record_downgrade(
            minute, victim, from_name, to_name,
            candidates=candidates, forced=forced,
        )


def apply_capacity_valve(
    schedule: KeepAliveSchedule,
    minute: int,
    capacity_mb: float,
    rng,
    assignment: dict[int, ModelFamily],
    events: EventLog | None = None,
    obs: ObsSession | None = None,
) -> int:
    """§III-A's provider pressure valve: randomly downgrade kept-alive
    models until the minute's keep-alive memory fits ``capacity_mb``.

    Shared by the reference and fast engine loops so both consume the
    capacity RNG identically. The candidate array is built once and
    maintained incrementally (victims are removed only when their
    keep-alive is dropped entirely), instead of rebuilding it from the
    alive map on every iteration; it stays fid-sorted throughout, which
    keeps victim selection deterministic under ``capacity_seed``.

    ``events``/``obs`` only *record* each forced downgrade (DOWNGRADE
    events with ``value=1.0``; ``forced=True`` trace records) — victim
    selection and the RNG stream are unaffected.
    """
    if schedule.memory_at(minute) <= capacity_mb:
        return 0
    alive_fids = np.fromiter(schedule.alive_at(minute), dtype=np.int64)
    n_forced = 0
    record = events is not None or obs is not None
    while schedule.memory_at(minute) > capacity_mb and alive_fids.size:
        victim = int(rng.choice(alive_fids))
        if record:
            frm = schedule.alive_variant(victim, minute)
        schedule.downgrade(victim, minute, assignment[victim], allow_drop=True)
        n_forced += 1
        new = schedule.alive_variant(victim, minute)
        if record:
            emit_downgrade(
                minute, victim, frm.name,
                new.name if new is not None else None,
                events, obs, forced=True,
            )
        if new is None:
            alive_fids = alive_fids[alive_fids != victim]
    return n_forced


@dataclass(frozen=True)
class SimulationConfig:
    """Engine parameters.

    ``record_series`` keeps the per-minute memory series (needed for the
    memory/cost-error figures; disable for large sweeps).
    ``track_containers`` maintains the container pool (lifecycle statistics;
    small overhead).
    ``measure_overhead`` wall-clocks every policy decision (Figure 9).
    ``record_events`` collects a structured event log (cold/warm starts,
    pre-warms, evictions, memory commits) on ``RunResult.events``;
    implies container tracking for the pre-warm/eviction events.

    ``memory_capacity_mb`` models the provider's finite memory (§III-A:
    memory "is shared between actual invocations and keep-alive"). When a
    minute's keep-alive memory exceeds capacity *after* the policy's
    review, the platform force-downgrades **randomly chosen** kept-alive
    models until it fits — the paper's "random functions/models are
    downgraded" pressure valve that PULSE's utility-guided flattening is
    designed to preempt. ``None`` (default) disables the cap.

    ``faults`` attaches a :class:`~repro.faults.plan.FaultPlan`: seeded
    platform faults (spawn failures/retries, cold-start slowdowns,
    memory-pressure spikes, trace perturbations) injected identically on
    both engines. ``None`` (default) or an all-zero plan injects nothing
    and leaves every metric bit-identical to a fault-free build.
    """

    keep_alive_window: int = 10
    cost_model: CostModel = field(default_factory=CostModel)
    record_series: bool = True
    track_containers: bool = True
    measure_overhead: bool = False
    record_events: bool = False
    memory_capacity_mb: float | None = None
    capacity_seed: int = 0
    faults: FaultPlan | None = None
    #: Observability (:mod:`repro.obs`): ``None``/``False`` disables the
    #: layer entirely (no recorder, no allocations); ``True`` enables all
    #: of it; an :class:`~repro.obs.session.ObservabilityConfig` picks
    #: layers. Enabling it never changes headline metrics (the golden
    #: test in ``tests/test_obs_equivalence.py`` pins bit-identity).
    observe: ObservabilityConfig | bool | None = None

    def __post_init__(self) -> None:
        check_positive_int("keep_alive_window", self.keep_alive_window)
        if self.memory_capacity_mb is not None and self.memory_capacity_mb <= 0:
            raise ValueError(
                f"memory_capacity_mb must be positive, got {self.memory_capacity_mb}"
            )
        if self.observe is True:
            object.__setattr__(self, "observe", ObservabilityConfig())
        elif self.observe is False:
            object.__setattr__(self, "observe", None)
        elif self.observe is not None and not isinstance(
            self.observe, ObservabilityConfig
        ):
            raise TypeError(
                "observe must be an ObservabilityConfig, a bool or None, "
                f"got {self.observe!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or None, got {self.faults!r}"
            )


class Simulation:
    """One policy, one trace, one assignment — one run."""

    def __init__(
        self,
        trace: Trace,
        assignment: dict[int, ModelFamily],
        policy: KeepAlivePolicy,
        config: SimulationConfig | None = None,
    ):
        self.trace = trace
        self.assignment = dict(assignment)
        self.policy = policy
        self.config = config or SimulationConfig()
        self._validate()
        faults = self.config.faults
        if faults is not None and faults.perturbs_trace:
            # Perturb once, up front: both engines (and the oracle
            # baselines' bind()) must see the same noisy trace.
            self.trace = faults.perturb_trace(self.trace)

    def _validate(self) -> None:
        if set(self.assignment) != set(range(self.trace.n_functions)):
            raise ValueError(
                "assignment must map every function id 0..n-1 to a family; "
                f"got keys {sorted(self.assignment)}"
            )

    def run(
        self,
        engine: str | None = None,
        *,
        checkpoint: CheckpointConfig | None = None,
        resume_from: SimulationState | str | Path | None = None,
    ) -> RunResult:
        """Execute the run and return its metrics.

        ``engine`` selects the loop:

        - ``"auto"`` — the event-driven fast loop unless the config needs
          the per-minute decision cadence (``measure_overhead``);
        - ``"reference"`` — the minute-by-minute reference loop;
        - ``"fast"`` — the fast loop, erroring if the config demands the
          reference cadence;
        - ``"fleet"`` — the columnar fleet engine
          (:mod:`repro.runtime.fleet`): per-function state in numpy
          arrays with a global reduce for the cross-function stages.
          Built for 10⁴–10⁵-function fleets; supports PULSE and the
          fixed baselines, carries a columnar observability session
          when ``config.observe`` is set, and errors on
          ``measure_overhead``;
        - ``None`` (default) — the historical default, equivalent to
          ``"reference"``.

        Spelling is validated by :func:`repro.utils.specs.parse_engine`
        (the one engine vocabulary shared with the CLI, the API facade
        and the durable sweep layer); selectors are case-insensitive.

        All loops produce identical metrics; ``wall_clock_s`` records
        the elapsed engine time either way. Every engine runs through
        the one batch driver (:mod:`repro.runtime.driver`).

        ``checkpoint`` enables periodic :class:`SimulationState`
        snapshots on every engine (see :mod:`repro.runtime.checkpoint`);
        ``resume_from`` — a state or a path to one — continues an
        interrupted run from its last snapshot, bit-identically to never
        having stopped. A resume must use the same
        trace/assignment/policy/config that produced the checkpoint (the
        durable sweep layer verifies this via content hashes); the engine
        is taken from the checkpoint unless explicitly overridden, and an
        explicit mismatch errors, as does a ``session:*`` snapshot.
        """
        if checkpoint is not None and not isinstance(checkpoint, CheckpointConfig):
            raise TypeError(
                f"checkpoint must be a CheckpointConfig or None, got {checkpoint!r}"
            )
        if isinstance(resume_from, (str, Path)):
            resume_from = SimulationState.load(resume_from)
        t0 = time.perf_counter()
        stepper = open_stepper(self, engine, resume_from)
        drive(
            stepper,
            checkpoint=checkpoint,
            bucket=resume_from.cursor[0] if resume_from is not None else 0,
        )
        result = stepper.finalize()
        wall = time.perf_counter() - t0
        if result.obs is not None and result.obs.spans_enabled:
            result.obs.spans.add("engine-total", wall)
        return replace(result, wall_clock_s=wall)


class ReferenceStepper(Stepper):
    """The reference engine, one minute at a time.

    :meth:`step` executes exactly one minute (§5 order of operations —
    pre-warm, serve+plan, review, valve, commit); the shared core
    (:class:`~repro.runtime.driver.Stepper`) owns construction, restore,
    idle spans and :meth:`finalize`. The batch driver
    (:func:`repro.runtime.driver.drive`) and incremental sessions
    (:mod:`repro.serve.session`) share this single implementation, so a
    stepped replay is bit-identical to a batch run by construction.
    """

    engine = "reference"

    def _fresh_state(self) -> None:
        self.schedule = KeepAliveSchedule(
            self.n_fn, self.cfg.keep_alive_window, horizon_hint=self.horizon
        )
        self.n_warm = 0
        self.overhead = 0.0
        self.n_decisions = 0
        self.capacity_rng = rng_from_seed(self.cfg.capacity_seed)
        self.n_forced = 0
        self.last_arrival: list[int | None] = (
            [None] * self.n_fn if self.rec is not None else []
        )

    def _derived_state(self) -> None:
        n_fn, met = self.n_fn, self.met
        if met is not None:
            _inv = met.counter("invocations_total", "invocations served")
            _cold = met.counter("cold_starts_total", "user-visible cold starts")
            self.inv_counters = [_inv.labels(function=f) for f in range(n_fn)]
            self.cold_counters = [_cold.labels(function=f) for f in range(n_fn)]
            self.warm_counter = met.counter(
                "warm_starts_total", "invocations served warm"
            ).labels()
            self.mem_hist = met.histogram(
                "keepalive_mb", "per-minute committed keep-alive memory"
            ).summary()
        else:
            self.inv_counters = self.cold_counters = None
            self.warm_counter = self.mem_hist = None
        self.highest_mb = np.array(
            [self.assignment[fid].highest.memory_mb for fid in range(n_fn)]
        )
        self.measure = self.cfg.measure_overhead

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
            "overhead": self.overhead,
            "n_decisions": self.n_decisions,
            "total_mb_minutes": self.total_mb_minutes,
            "mem_series": self.mem_series,
            "ideal_series": self.ideal_series,
            "capacity_rng": self.capacity_rng,
            "n_forced": self.n_forced,
            "injector": self.injector,
            "n_checkpoints": self.n_checkpoints,
            "last_arrival": self.last_arrival,
        }

    def step(self, t: int, fids: np.ndarray, fid_counts: np.ndarray) -> None:
        """Execute minute ``t``.

        ``fids`` are the invoking function ids (ascending) with their
        aligned invocation ``fid_counts``; pass empty arrays for an idle
        minute. Minutes must be fed strictly in order (``t`` ==
        ``next_minute``); the driver and the session layer both
        guarantee this.
        """
        # Localize the hot names (the inner loop reads them many times);
        # mutated scalars are written back at the end of the minute.
        policy = self.policy
        schedule = self.schedule
        pool = self.pool
        events = self.events
        rec, met, spans = self.rec, self.met, self.spans
        inv_counters, cold_counters = self.inv_counters, self.cold_counters
        warm_counter = self.warm_counter
        injector = self.injector
        last_arrival = self.last_arrival
        measure = self.measure
        clock = time.perf_counter
        n_fn = self.n_fn
        service_time = self.service_time
        accuracy_sum = self.accuracy_sum
        n_invocations = self.n_invocations
        n_warm = self.n_warm
        n_cold = self.n_cold
        overhead = self.overhead
        n_decisions = self.n_decisions

        # Pre-warm pass: realize the schedule's decisions for this
        # minute before invocations arrive.
        if pool is not None:
            if spans is None:
                for fid in range(n_fn):
                    pool.reconcile(fid, schedule.alive_variant(fid, t), t)
            else:
                s0 = clock()
                for fid in range(n_fn):
                    pool.reconcile(fid, schedule.alive_variant(fid, t), t)
                spans.add("pool-reconcile", clock() - s0)

        # 1 + 2: serve invocations, then plan.
        for fid, count in zip(fids.tolist(), fid_counts.tolist()):
            count = int(count)
            alive = schedule.alive_variant(fid, t)
            if alive is None:
                if measure:
                    t0 = clock()
                    variant = policy.cold_variant(fid, t)
                    overhead += clock() - t0
                    n_decisions += 1
                else:
                    variant = policy.cold_variant(fid, t)
                if injector is None:
                    service_time += (
                        variant.cold_service_time_s
                        + (count - 1) * variant.warm_service_time_s
                    )
                else:
                    service_time += (
                        variant.cold_service_time_s
                        + injector.cold_start_penalty(
                            t, fid, variant, rec, events
                        )
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
                    rec.record_cold(
                        t, fid, variant.name, count, last_arrival[fid]
                    )
                if met is not None:
                    cold_counters[fid].inc()
                    if count > 1:
                        warm_counter.inc(count - 1)
            else:
                service_time += count * alive.warm_service_time_s
                n_warm += count
                accuracy_sum += count * alive.accuracy
                if pool is not None:
                    pool.record_served(fid, count)
                if events is not None:
                    events.emit(t, EventKind.WARM_START, fid, alive.name, count)
                if met is not None:
                    warm_counter.inc(count)
            n_invocations += count
            if met is not None:
                inv_counters[fid].inc(count)

            policy.observe_invocation(fid, t, count)
            if measure:
                t0 = clock()
                plan = policy.plan(fid, t)
                overhead += clock() - t0
                n_decisions += 1
            else:
                plan = policy.plan(fid, t)
            schedule.set_plan(fid, t, plan)
            if rec is not None:
                rec.record_plan(t, fid, plan)
                last_arrival[fid] = t

        # 3: cross-function review (peak flattening).
        if measure:
            t0 = clock()
            policy.review_minute(t, schedule)
            overhead += clock() - t0
            n_decisions += 1
        else:
            policy.review_minute(t, schedule)

        # 3b: provider pressure valve — random downgrades when the
        # minute's keep-alive memory exceeds the platform capacity
        # (the standing cap, or a fault plan's transient spike cap).
        if self.valve_on:
            cap_t = (
                self.capacity
                if injector is None
                else injector.effective_capacity(t, self.capacity)
            )
            if cap_t is not None:
                self.n_forced += apply_capacity_valve(
                    schedule, t, cap_t, self.capacity_rng, self.assignment,
                    events, rec,
                )

        # 4: commit the minute — settle containers on the post-review
        # variants, then charge warm minutes.
        if pool is not None:
            if spans is None:
                for fid in range(n_fn):
                    pool.reconcile(fid, schedule.alive_variant(fid, t), t)
            else:
                s0 = clock()
                for fid in range(n_fn):
                    pool.reconcile(fid, schedule.alive_variant(fid, t), t)
                spans.add("pool-reconcile", clock() - s0)
            pool.tick_all()

        mem_t = schedule.memory_at(t)
        self.total_mb_minutes += mem_t
        if events is not None:
            events.emit(t, EventKind.MEMORY_COMMIT, value=mem_t)
        if met is not None:
            self.mem_hist.observe(mem_t)
        if self.mem_series is not None:
            self.mem_series[t] = mem_t
        if self.ideal_series is not None and fids.size:
            self.ideal_series[t] = self.highest_mb[fids].sum()

        schedule.advance(t + 1)

        self.service_time = service_time
        self.accuracy_sum = accuracy_sum
        self.n_invocations = n_invocations
        self.n_warm = n_warm
        self.n_cold = n_cold
        self.overhead = overhead
        self.n_decisions = n_decisions
        self.last_memory_mb = mem_t
        self.next_minute = t + 1
