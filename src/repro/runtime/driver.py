"""The batch driver: engine selection and the one event-group loop.

Every run over a whole trace goes through this module. That covers
:meth:`~repro.runtime.simulator.Simulation.run` (and so
:func:`repro.api.simulate`), :meth:`repro.serve.session.ControlSession.replay`,
and the trace-driven gap before a session's ``advance(minute)``.

- :func:`open_stepper` resolves an engine selector and builds that
  engine's stepper: :class:`~repro.runtime.simulator.ReferenceStepper`,
  :class:`~repro.runtime.fastpath.FastStepper` or
  :class:`~repro.runtime.fleet.FleetStepper`. On resume it builds the
  stepper from the snapshot and binds it to the engine that captured it.
- :func:`drive` extracts the trace's sparse minute-major event table
  once and walks its event groups, one per minute with at least one
  invocation. Each group first settles the idle gap before it through
  ``stepper.idle_span`` and then serves its minute through
  ``stepper.step``. The reference and fleet steppers walk an idle span
  minute by minute; the fast stepper accounts it in bulk.

The three steppers share one surface by convention, not by base class:
``step(t, fids, counts)``, ``idle_span(start, stop)``, ``next_minute``,
``n_invocations``, ``n_cold``, ``n_forced``, ``last_memory_mb``,
``n_checkpoints``, ``met``, ``obs``, ``live_state()`` and ``finalize()``.

Checkpointing is a hook of the driver, with one cadence rule for every
engine: a snapshot is captured before the first event group of each new
``CheckpointConfig.every_minutes`` bucket, with the idle gap before that
group still unaccounted. The cadence is therefore a pure function of
the trace, and an interrupted run and a clean run capture at the same
minutes. The cursor is just that bucket.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.runtime.checkpoint import CheckpointConfig, SimulationState
from repro.utils.specs import parse_engine

__all__ = ["drive", "open_stepper"]

#: The engines whose checkpoints a batch run resumes (``session:*``
#: snapshots restore through ``ControlSession.restore`` instead).
_STEPPER_ENGINES = ("reference", "fast", "fleet")


def open_stepper(
    sim,
    engine: str | None = None,
    resume_from: SimulationState | None = None,
    *,
    live: dict | None = None,
    next_minute: int = 0,
) -> Any:
    """Build the stepper that runs ``sim`` on the selected engine.

    ``engine`` is ``"auto"`` (fast, unless ``measure_overhead`` needs
    the reference loop's per-decision cadence), ``"reference"``,
    ``"fast"``, ``"fleet"``, or ``None`` (the reference loop, the
    historical default of ``Simulation.run``).

    ``resume_from`` is an engine checkpoint to continue. Its engine wins
    over ``None``/``"auto"``, and any other selector must name the same
    engine: the steppers' payloads are not interchangeable. A session
    restore passes the snapshot's already-unpickled ``live`` payload and
    its ``next_minute`` instead.
    """
    name = None if engine is None else parse_engine(engine)
    if resume_from is not None:
        origin = resume_from.engine
        if origin not in _STEPPER_ENGINES:
            raise ValueError(
                f"cannot resume a {origin!r} snapshot with engine={name!r}: "
                "Simulation.run resumes engine checkpoints only; restore "
                "session snapshots with ControlSession.restore"
            )
        if name not in (None, "auto", origin):
            raise ValueError(
                f"cannot resume a {origin!r} checkpoint with engine={name!r}"
            )
        name = origin
        live, next_minute = resume_from.restore(), resume_from.next_minute
    elif name is None:
        name = "reference"
    elif name == "auto":
        name = "reference" if sim.config.measure_overhead else "fast"
    if name != "reference" and sim.config.measure_overhead:
        raise ValueError(
            f"engine={name!r} cannot honor measure_overhead=True (Figure 9's "
            "metric needs the reference loop's per-minute decision "
            "cadence); use engine='auto' or 'reference'"
        )
    if name == "fleet":
        from repro.runtime.fleet import FleetStepper

        return FleetStepper(sim, live=live, next_minute=next_minute)
    if name == "fast":
        from repro.runtime.fastpath import FastStepper

        return FastStepper(sim, live=live, next_minute=next_minute)
    from repro.runtime.simulator import ReferenceStepper

    return ReferenceStepper(sim, live=live, next_minute=next_minute)


def drive(
    stepper,
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
    start = stepper.next_minute
    stop = stepper.horizon if stop is None else stop
    # Sparse event extraction: (minute, fid, count) triples in
    # minute-major, fid-ascending order — the order every engine serves
    # in. Groups (one per event minute) are delimited up front, so the
    # loop never re-tests the minute column.
    window = counts[:, start:stop].T
    ev_t, ev_fid = np.nonzero(window)
    ev_count = window[ev_t, ev_fid]
    group_ends = np.append(np.flatnonzero(np.diff(ev_t)) + 1, ev_t.size)
    group_minutes = (
        (ev_t[np.append(0, group_ends[:-1])] + start).tolist()
        if ev_t.size
        else []
    )

    every = checkpoint.every_minutes if checkpoint is not None else 0
    counter = (
        stepper.met.counter("checkpoints_total", "engine checkpoints captured")
        if checkpoint is not None and stepper.met is not None
        else None
    )
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
