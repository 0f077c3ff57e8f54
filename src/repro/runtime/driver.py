"""The batch driver: engine selection and the one event-group loop.

Every run over a whole trace goes through this module. That covers
:meth:`~repro.runtime.simulator.Simulation.run` (and so
:func:`repro.api.simulate`), :meth:`repro.serve.session.ControlSession.replay`,
and the trace-driven gap before a session's ``advance(minute)``.

- :func:`open_stepper` resolves an engine selector and builds that
  engine's stepper: :class:`~repro.runtime.simulator.ReferenceStepper`
  or :class:`~repro.runtime.fleet.FleetStepper`. On resume it builds the
  stepper from the snapshot and binds it to the engine that captured it.
- :func:`drive` extracts the trace's sparse minute-major event table
  one fixed block of minutes at a time and walks its event groups, one
  per minute with at least one invocation. Each group first settles
  the idle gap before it through ``stepper.idle_span`` and then serves
  its minute through ``stepper.step``. Both steppers walk an idle span
  minute by minute.

Every stepper subclasses :class:`Stepper`, the one run-state core: it
builds the common fresh state (obs session, policy binding, fault
injector, accumulators, series), restores a snapshot payload after
checking its key set against ``SNAPSHOT_FIELDS``, builds the snapshot
payload from that same entry (:meth:`Stepper.live_state`), derives the
telemetry handles, walks an idle span minute by minute and builds the
:class:`~repro.runtime.metrics.RunResult`. An engine adds only its
per-minute ``step``, its own fresh state, and the names of its
snapshot-carried fields in ``SNAPSHOT_FIELDS``.

Checkpointing is a hook of the driver, with one cadence rule for every
engine: a snapshot is captured before the first event group of each new
``CheckpointConfig.every_minutes`` bucket, with the idle gap before that
group still unaccounted. The cadence is therefore a pure function of
the trace, and an interrupted run and a clean run capture at the same
minutes. The cursor is just that bucket.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injector import FaultInjector
from repro.obs.session import NULL_OBS, ObsSession
from repro.runtime.checkpoint import (
    SNAPSHOT_FIELDS,
    CheckpointConfig,
    SimulationState,
)
from repro.runtime.metrics import RunResult
from repro.runtime.policy import KeepAlivePolicy
from repro.utils.specs import parse_engine

__all__ = ["NO_EVENTS", "Stepper", "drive", "open_stepper"]

#: The engines whose checkpoints a batch run resumes.
_STEPPER_ENGINES = tuple(SNAPSHOT_FIELDS)

#: Minutes per block of the sparse event table :func:`drive` extracts
#: at a time: the table's memory is bounded by one block, not the trace.
_EVENT_BLOCK_MINUTES = 64

#: The ``fids``/``counts`` pair of an idle minute.
NO_EVENTS = np.empty(0, dtype=np.int64)
NO_EVENTS.flags.writeable = False


def collect_resilience(
    policy: KeepAlivePolicy, injector: FaultInjector | None, horizon: int
) -> dict[str, int]:
    """The run's resilience counters, as ``RunResult`` kwargs.

    Spawn counters come from the fault injector; policy-fault counters
    come from the policy itself when it exposes ``resilience_stats``
    (duck-typed — only :class:`~repro.faults.isolation.ResilientPolicy`
    does, so plain policies pay a single ``getattr``).
    """
    out = {
        "n_spawn_failures": 0,
        "n_retries": 0,
        "n_policy_faults": 0,
        "n_degraded_minutes": 0,
    }
    if injector is not None:
        out["n_spawn_failures"] = injector.n_spawn_failures
        out["n_retries"] = injector.n_retries
    stats = getattr(policy, "resilience_stats", None)
    if stats is not None:
        out.update(stats(horizon))
    return out


class Stepper:
    """The run-state core of every engine, steppable one minute at a time.

    Constructed fresh (``live=None``: builds the obs session, attaches
    and binds the policy, allocates the fault injector, the accumulators
    and the series, then calls the engine's :meth:`_fresh_state`) or
    from a restored snapshot payload (``live=`` the dict from
    :meth:`SimulationState.restore`, plus the snapshot's
    ``next_minute``). A restore sets exactly the fields
    ``SNAPSHOT_FIELDS[engine]`` names, so shared identities survive the
    one-pickle round trip, and ``attach_observability``/``bind`` are not
    re-run — the restored policy already carries its bound state.
    Telemetry handles are re-derived from the (possibly restored) obs
    session either way: the metrics registry hands back the same counter
    for the same name, so a resumed run keeps accumulating where the
    snapshot left off.

    ``next_minute`` is the first minute not yet executed. Subclasses set
    ``engine`` (a ``SNAPSHOT_FIELDS`` key) and provide :meth:`step`,
    :meth:`_fresh_state` and :meth:`_derived_state`; the hooks
    :meth:`_open_obs` and :meth:`_close_metrics` default to the loop
    engines' behaviour.
    """

    engine: str
    #: The reference loop's ``measure_overhead`` accumulators; every
    #: other engine reports zero.
    overhead = 0.0
    n_decisions = 0
    #: The keep-alive memory committed for the last stepped minute.
    last_memory_mb = 0.0

    def __init__(self, sim, *, live: dict | None = None, next_minute: int = 0):
        trace, cfg = sim.trace, sim.config
        self.sim = sim
        self.cfg = cfg
        self.assignment = sim.assignment
        self.horizon = trace.horizon
        self.n_fn = trace.n_functions
        self.next_minute = next_minute
        if live is None:
            policy = sim.policy
            self.obs = self._open_obs() if cfg.observe is not None else None
            # Before bind, so on_bind can wire policy sub-components.
            # Always called: NULL_OBS detaches whatever an earlier run of
            # the same policy object left attached.
            policy.attach_observability(
                self.obs if self.obs is not None else NULL_OBS
            )
            policy.bind(trace, sim.assignment, cfg.keep_alive_window)
            self.policy = policy
            self.injector = (
                FaultInjector(cfg.faults, self.horizon)
                if cfg.faults is not None and cfg.faults.injects_runtime
                else None
            )
            self.service_time = 0.0
            self.accuracy_sum = 0.0
            self.n_invocations = 0
            self.n_cold = 0
            self.total_mb_minutes = 0.0
            self.mem_series = (
                np.zeros(self.horizon) if cfg.record_series else None
            )
            self.ideal_series = (
                np.zeros(self.horizon) if cfg.record_series else None
            )
            self.n_checkpoints = 0
        else:
            self._restore(live)

        # Hot-loop telemetry handles (each None when its layer is off).
        obs = self.obs
        self.rec = obs if obs is not None and obs.decisions_enabled else None
        self.met = (
            obs.metrics if obs is not None and obs.metrics_enabled else None
        )
        self.spans = (
            obs.spans if obs is not None and obs.spans_enabled else None
        )
        # The valve checks every minute when a standing cap or a fault
        # plan's transient pressure spikes are configured.
        self.capacity = cfg.memory_capacity_mb
        self.valve_on = self.capacity is not None or (
            self.injector is not None
            and self.injector.pressure_minutes is not None
        )
        if live is None:
            self._fresh_state()
        self._derived_state()
        self._result: RunResult | None = None

    def _restore(self, live: dict) -> None:
        """Set the snapshot-carried fields, refusing a payload whose key
        set is not exactly ``SNAPSHOT_FIELDS[engine]``."""
        expected = set(SNAPSHOT_FIELDS[self.engine])
        keys = set(live) if isinstance(live, dict) else set()
        if keys != expected:
            detail = []
            if expected - keys:
                detail.append(f"missing {', '.join(sorted(expected - keys))}")
            if keys - expected:
                detail.append(f"unexpected {', '.join(sorted(keys - expected))}")
            raise ValueError(
                f"{self.engine!r} snapshot payload does not match "
                f"SNAPSHOT_FIELDS[{self.engine!r}]: {'; '.join(detail)}"
            )
        for name, value in live.items():
            setattr(self, name, value)

    # -- engine hooks ------------------------------------------------------
    def _open_obs(self) -> ObsSession:
        """A fresh observability session for ``cfg.observe``."""
        return ObsSession(self.cfg.observe)

    def _fresh_state(self) -> None:
        """Allocate the engine's own run state (fresh runs only)."""
        raise NotImplementedError

    def _derived_state(self) -> None:
        """Derive the engine's non-snapshot handles (fresh or restored)."""
        raise NotImplementedError

    def _close_metrics(self, met) -> None:
        """Register the run-level metrics when the run is finalized."""
        met.counter(
            "forced_downgrades_total", "capacity-valve downgrades"
        ).inc(self.n_forced)
        met.gauge("horizon_minutes").set(self.horizon)
        met.gauge("n_functions").set(self.n_fn)
        met.gauge("keepalive_mb_minutes").set(self.total_mb_minutes)

    # -- the stepping surface ----------------------------------------------
    def live_state(self) -> dict:
        """The checkpoint payload: the ``SNAPSHOT_FIELDS[engine]`` fields,
        in schema order. One dict → one pickle, so shared identities
        (the policy's plan cache inside the schedule) survive the round
        trip."""
        return {name: getattr(self, name) for name in SNAPSHOT_FIELDS[self.engine]}

    def step(self, t: int, fids: np.ndarray, fid_counts: np.ndarray) -> None:
        """Execute minute ``t``: ``fids`` are the invoking function ids
        (ascending) with their aligned invocation ``fid_counts``, empty
        for an idle minute. Minutes are fed strictly in order."""
        raise NotImplementedError

    def idle_span(self, start: int, stop: int) -> None:
        """Execute the idle minutes ``start .. stop-1``, one at a time."""
        for t in range(start, stop):
            self.step(t, NO_EVENTS, NO_EVENTS)

    def finalize(self) -> RunResult:
        """Close the run and build its :class:`RunResult` (idempotent —
        the metric gauges mutate, so the result is cached)."""
        if self._result is not None:
            return self._result
        if self.met is not None:
            self._close_metrics(self.met)
        n_invocations = self.n_invocations
        self._result = RunResult(
            policy_name=self.policy.name,
            n_invocations=n_invocations,
            n_warm=self.n_warm,
            n_cold=self.n_cold,
            total_service_time_s=self.service_time,
            keepalive_cost_usd=self.cfg.cost_model.minute_cost(
                self.total_mb_minutes
            ),
            mean_accuracy=(
                self.accuracy_sum / n_invocations if n_invocations else 0.0
            ),
            policy_overhead_s=self.overhead,
            n_policy_decisions=self.n_decisions,
            memory_series_mb=self.mem_series,
            ideal_memory_series_mb=self.ideal_series,
            n_forced_downgrades=self.n_forced,
            n_checkpoints=self.n_checkpoints,
            obs=self.obs,
            **collect_resilience(self.policy, self.injector, self.horizon),
        )
        return self._result


def open_stepper(
    sim,
    engine: str | None = None,
    resume_from: SimulationState | None = None,
) -> Stepper:
    """Build the stepper that runs ``sim`` on the selected engine.

    ``engine`` is ``"reference"``, ``"fleet"``, or ``"auto"``/``None``
    (both the reference loop). ``fleet`` refuses ``measure_overhead``,
    which needs the reference loop's per-decision cadence.

    ``resume_from`` is an engine checkpoint to continue. Its engine wins
    over ``None``/``"auto"``, and any other selector must name the same
    engine: the steppers' payloads are not interchangeable.
    """
    name = None if engine is None else parse_engine(engine)
    live: dict | None = None
    next_minute = 0
    if resume_from is not None:
        origin = resume_from.engine
        if origin not in _STEPPER_ENGINES:
            raise ValueError(
                f"cannot resume a {origin!r} snapshot: Simulation.run "
                f"resumes checkpoints of the {', '.join(_STEPPER_ENGINES)} "
                "engines"
            )
        if name not in (None, "auto", origin):
            raise ValueError(
                f"cannot resume a {origin!r} checkpoint with engine={name!r}"
            )
        name = origin
        live, next_minute = resume_from.restore(), resume_from.next_minute
    if name == "fleet":
        if sim.config.measure_overhead:
            raise ValueError(
                "engine='fleet' cannot honor measure_overhead=True (Figure "
                "9's metric needs the reference loop's per-minute decision "
                "cadence); use engine='auto' or 'reference'"
            )
        from repro.runtime.fleet import FleetStepper

        return FleetStepper(sim, live=live, next_minute=next_minute)
    from repro.runtime.simulator import ReferenceStepper

    return ReferenceStepper(sim, live=live, next_minute=next_minute)


def drive(
    stepper: Stepper,
    *,
    stop: int | None = None,
    checkpoint: CheckpointConfig | None = None,
    bucket: int = 0,
) -> None:
    """Run ``stepper`` over the trace from its ``next_minute`` up to
    ``stop`` (exclusive; default the horizon).

    ``checkpoint`` turns on the snapshot hook; ``bucket`` is the cadence
    bucket already captured (a resumed run passes its checkpoint's
    cursor). The hook bumps ``n_checkpoints`` and the
    ``checkpoints_total`` counter *before* capture, so a clean run and a
    resumed run agree on every count.
    """
    counts = stepper.sim.trace.counts
    stop = stepper.horizon if stop is None else stop
    every = checkpoint.every_minutes if checkpoint is not None else 0
    counter = (
        stepper.met.counter("checkpoints_total", "engine checkpoints captured")
        if checkpoint is not None and stepper.met is not None
        else None
    )
    for first in range(stepper.next_minute, stop, _EVENT_BLOCK_MINUTES):
        # Sparse event extraction, one block of minutes at a time:
        # (minute, fid, count) triples in minute-major, fid-ascending
        # order — the order every engine serves in. Groups (one per
        # event minute) are delimited up front, so the loop never
        # re-tests the minute column.
        window = counts[:, first:min(first + _EVENT_BLOCK_MINUTES, stop)].T
        ev_t, ev_fid = np.nonzero(window)
        if not ev_t.size:
            continue
        ev_count = window[ev_t, ev_fid]
        group_ends = np.append(np.flatnonzero(np.diff(ev_t)) + 1, ev_t.size)
        group_minutes = (ev_t[np.append(0, group_ends[:-1])] + first).tolist()
        lo = 0
        for t, hi in zip(group_minutes, group_ends.tolist()):
            if checkpoint is not None and t // every > bucket:
                bucket = t // every
                stepper.n_checkpoints += 1
                if counter is not None:
                    counter.inc()
                checkpoint.emit(
                    SimulationState.snapshot(
                        stepper.engine,
                        stepper.next_minute,
                        (bucket,),
                        stepper.live_state(),
                    )
                )
            if stepper.next_minute < t:
                stepper.idle_span(stepper.next_minute, t)
            stepper.step(t, ev_fid[lo:hi], ev_count[lo:hi])
            lo = hi
    stepper.idle_span(stepper.next_minute, stop)
