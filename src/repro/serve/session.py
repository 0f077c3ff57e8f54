"""Control-plane sessions: ``advance()`` a run one minute at a time.

The batch API (:meth:`repro.runtime.simulator.Simulation.run`,
:func:`repro.api.simulate`) executes a whole trace and hands back the
final :class:`~repro.runtime.metrics.RunResult`. A *session* exposes the
same engines incrementally: :func:`open_session` binds a policy to a
workload, and each :meth:`ControlSession.advance` call executes exactly
one simulated minute and returns that minute's control decisions —
variant plans, cold starts, downgrades, capacity-valve actions — as the
engine made them.

There is **one stepping code path**. Sessions open their stepper
(:class:`~repro.runtime.simulator.ReferenceStepper`,
:class:`~repro.runtime.fastpath.FastStepper` or
:class:`~repro.runtime.fleet.FleetStepper`) through the same engine
selection as ``Simulation.run()``
(:func:`~repro.runtime.driver.open_stepper`), and every trace-driven
stretch — :meth:`ControlSession.replay` and the gap before an
``advance(minute)`` — runs through the same batch driver
(:func:`~repro.runtime.driver.drive`). A full-trace replay through
``advance()`` is therefore bit-identical to ``Simulation.run()`` on
every engine — pinned by the golden tests in
``tests/test_serve_session.py``.

Two workload modes share the API:

- **Replay** — open with a recorded :class:`~repro.traces.schema.Trace`;
  ``advance()`` feeds each minute's invocations from the trace.
- **Online** — open with a :class:`TraceMeta` (fleet size + horizon);
  the caller supplies each minute's invocations to ``advance()`` as they
  arrive. The oracle baseline and trace-perturbing fault plans are
  rejected here (both need the full future trace).

``snapshot()`` captures the session as a
:class:`~repro.runtime.checkpoint.SimulationState` (the engine
checkpoint format, ``engine="session:<name>"``, with an empty cursor —
the cadence bucket belongs to batch checkpoints) and
``ControlSession.restore()`` rebuilds it — in the same process or after
a restart — bit-identically, by the same one-pickle-payload rule the
engine checkpoints use.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.faults.plan import FaultPlan
from repro.models.variants import ModelFamily
from repro.obs.session import ObservabilityConfig
from repro.runtime.checkpoint import SimulationState
from repro.runtime.driver import drive, open_stepper
from repro.runtime.metrics import RunResult
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import FunctionSpec, Trace
from repro.utils.validation import check_positive_int

__all__ = ["AdvanceResult", "ControlSession", "TraceMeta", "open_session"]


@dataclass(frozen=True)
class TraceMeta:
    """Shape of an *online* workload: fleet size and control horizon.

    Opening a session with a ``TraceMeta`` instead of a recorded
    :class:`~repro.traces.schema.Trace` puts it in online mode: the
    trace is all-idle and each minute's invocations are supplied to
    :meth:`ControlSession.advance` as they arrive.
    """

    n_functions: int
    horizon_minutes: int
    name: str = "online"

    def __post_init__(self) -> None:
        check_positive_int("n_functions", self.n_functions)
        check_positive_int("horizon_minutes", self.horizon_minutes)

    def to_trace(self) -> Trace:
        """An all-idle placeholder trace of this shape."""
        counts = np.zeros(
            (self.n_functions, self.horizon_minutes), dtype=np.int64
        )
        functions = tuple(
            FunctionSpec(fid, f"fn-{fid:05d}", archetype="online")
            for fid in range(self.n_functions)
        )
        return Trace(counts=counts, functions=functions, name=self.name)


@dataclass(frozen=True)
class AdvanceResult:
    """What one :meth:`ControlSession.advance` minute did.

    ``decisions`` are the engine's decision-trace records for the minute
    — the exact dicts the observability layer writes (``kind`` in
    ``plan``/``cold``/``downgrade``/``peak``/``spawn_fault``/
    ``policy_fault``; see :mod:`repro.obs.session`) — empty when the
    session runs without decision recording. ``memory_mb`` is the
    keep-alive memory committed for the minute.
    """

    minute: int
    n_invocations: int
    n_cold: int
    n_forced_downgrades: int
    memory_mb: float
    decisions: tuple[dict, ...]

    def as_dict(self) -> dict:
        """JSON-ready form (decision records are already plain dicts)."""
        return {
            "minute": self.minute,
            "n_invocations": self.n_invocations,
            "n_cold": self.n_cold,
            "n_forced_downgrades": self.n_forced_downgrades,
            "memory_mb": self.memory_mb,
            "decisions": list(self.decisions),
        }


class ControlSession:
    """One live run, driven minute-by-minute over a single stepper.

    Construct through :func:`open_session` (fresh) or
    :meth:`ControlSession.restore` (from a snapshot). The session owns a
    stepper for the selected engine and only ever feeds it minutes in
    order, which is the whole bit-identity argument: the per-minute
    semantics live in the stepper classes the batch drivers share.
    """

    def __init__(
        self,
        sim: Simulation,
        *,
        engine: str = "auto",
        online: bool = False,
        _restored: tuple | None = None,
    ) -> None:
        self.sim = sim
        self.trace = sim.trace
        self.horizon = sim.trace.horizon
        self.n_functions = sim.trace.n_functions
        self.online = online
        self._wall = 0.0
        self._span_added = False
        # Every engine's stepper subclasses runtime.driver.Stepper. The
        # handle stays untyped because two values read per advance
        # (n_forced, last_memory_mb) are attributes on some engines and
        # properties on others.
        live, next_minute = _restored if _restored is not None else (None, 0)
        self.stepper: Any = open_stepper(
            sim, engine, live=live, next_minute=next_minute
        )
        self.engine: str = self.stepper.engine

    # -- position ----------------------------------------------------------

    @property
    def next_minute(self) -> int:
        """The first minute not yet executed."""
        return self.stepper.next_minute

    @property
    def done(self) -> bool:
        """True once every minute of the horizon has executed."""
        return self.stepper.next_minute >= self.horizon

    # -- stepping ----------------------------------------------------------

    def advance(
        self,
        minute: int | None = None,
        invocations: Mapping[int, int] | list | None = None,
    ) -> AdvanceResult:
        """Execute one minute and return its control decisions.

        ``minute`` defaults to :attr:`next_minute`; a later minute first
        drives the gap from the trace (all-idle for online sessions).
        Earlier minutes error — sessions only move forward; ``restore()``
        an earlier snapshot to rewind.

        ``invocations`` overrides the trace for the target minute: a
        ``{fid: count}`` mapping or ``(fid, count)`` pairs (duplicates
        sum). ``None`` replays the trace column — the replay-mode
        default; online sessions pass each minute's arrivals here.
        """
        stepper = self.stepper
        start = stepper.next_minute
        if minute is None:
            minute = start
        minute = int(minute)
        if minute < start:
            raise ValueError(
                f"minute {minute} was already executed (next is {start}); "
                "sessions only move forward — restore() an earlier "
                "snapshot to rewind"
            )
        if minute >= self.horizon:
            raise ValueError(
                f"minute {minute} is past the horizon "
                f"({self.horizon} minutes)"
            )
        t0 = perf_counter()
        if minute > start:
            drive(stepper, stop=minute)
        obs = stepper.obs
        n_rec = len(obs.records) if obs is not None else 0
        inv0 = stepper.n_invocations
        cold0 = stepper.n_cold
        forced0 = stepper.n_forced
        fids, fid_counts = self._minute_events(minute, invocations)
        stepper.step(minute, fids, fid_counts)
        self._wall += perf_counter() - t0
        decisions = tuple(obs.records[n_rec:]) if obs is not None else ()
        return AdvanceResult(
            minute=minute,
            n_invocations=stepper.n_invocations - inv0,
            n_cold=stepper.n_cold - cold0,
            n_forced_downgrades=int(stepper.n_forced - forced0),
            memory_mb=float(stepper.last_memory_mb),
            decisions=decisions,
        )

    def replay(self) -> RunResult:
        """Drive every remaining minute from the trace and finish.

        Bit-identical to ``Simulation.run()`` on the session's engine:
        both run the same batch driver over the same stepper, so the
        fast engine keeps its skip-idle-minutes advantage here too.
        """
        t0 = perf_counter()
        drive(self.stepper)
        self._wall += perf_counter() - t0
        return self.result()

    def result(self) -> RunResult:
        """The finished run's :class:`RunResult` (replays any remaining
        minutes from the trace first). ``wall_clock_s`` accumulates the
        time spent inside ``advance()``/``replay()`` calls."""
        if self.stepper.next_minute < self.horizon:
            return self.replay()
        t0 = perf_counter()
        result = self.stepper.finalize()
        self._wall += perf_counter() - t0
        if (
            result.obs is not None
            and result.obs.spans_enabled
            and not self._span_added
        ):
            result.obs.spans.add("engine-total", self._wall)
            self._span_added = True
        return replace(result, wall_clock_s=self._wall)

    # -- decisions ---------------------------------------------------------

    def decisions(
        self, fid: int | None = None, *, kind: str | None = None
    ) -> list[dict]:
        """All decision records so far, optionally filtered by function
        id and/or record ``kind`` (fleet sessions record the sampled
        functions only; see :mod:`repro.obs.fleet`)."""
        obs = self.stepper.obs
        if obs is None:
            return []
        records = obs.records
        if fid is None and kind is None:
            return list(records)
        return [
            r
            for r in records
            if (fid is None or r.get("fid") == fid)
            and (kind is None or r.get("kind") == kind)
        ]

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable SHA-256 naming *what this session runs*.

        Hashes the engine selection, mode, policy class, the full
        ``SimulationConfig`` (fault plan and observability included) and
        the trace content (shape + counts bytes — already perturbed if
        the fault plan perturbs traces, so a session rebuilt from the
        same spec hashes identically). The serve-layer journal records
        it at open and recovery refuses to replay advances against a
        session that rebuilt differently — a spec or trace drift would
        otherwise replay into silently different state.
        """
        from repro.utils.atomicio import sha256_bytes

        trace_sha = sha256_bytes(self.trace.counts.tobytes())
        identity = "|".join(
            (
                self.engine,
                str(self.online),
                type(self.sim.policy).__name__,
                repr(self.sim.config),
                f"{self.n_functions}x{self.horizon}",
                trace_sha,
            )
        )
        return sha256_bytes(identity.encode("utf-8"))

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> SimulationState:
        """Capture the session as a :class:`SimulationState`.

        ``engine`` is ``"session:<name>"`` so engine checkpoints and
        session snapshots cannot be confused; the payload is one pickle
        of the stepper's live state plus the binding context (trace,
        assignment, config), so shared identities survive the round trip
        — the same rule the engine checkpoints follow. Persist with
        ``snapshot().save(path)``.
        """
        stepper = self.stepper
        payload = {
            "live": stepper.live_state(),
            "meta": {
                "trace": self.sim.trace,
                "assignment": self.sim.assignment,
                "config": self.sim.config,
                "online": self.online,
            },
        }
        return SimulationState.snapshot(
            f"session:{self.engine}", stepper.next_minute, (), payload
        )

    @classmethod
    def restore(cls, state: SimulationState | str | Path) -> "ControlSession":
        """Rebuild a session from :meth:`snapshot` (or a saved path).

        The restored session continues bit-identically — replaying the
        rest of the trace matches an uninterrupted run, byte for byte.
        """
        if isinstance(state, (str, Path)):
            state = SimulationState.load(state)
        prefix, _, name = state.engine.partition(":")
        if prefix != "session" or not name:
            raise ValueError(
                f"not a session snapshot: engine={state.engine!r} "
                "(engine checkpoints resume through Simulation.run)"
            )
        payload = state.restore()
        live, meta = payload["live"], payload["meta"]
        # Rebuild the Simulation context without __init__: the captured
        # trace is already fault-perturbed (Simulation.__init__ perturbs
        # up front), so going through it again would perturb twice.
        sim = object.__new__(Simulation)
        sim.trace = meta["trace"]
        sim.assignment = meta["assignment"]
        # .get: a payload without a policy is refused by the stepper's
        # restore, which names every missing or unexpected key.
        sim.policy = live.get("policy")
        sim.config = meta["config"]
        return cls(
            sim,
            engine=name,
            online=meta["online"],
            _restored=(live, state.next_minute),
        )

    # -- workload ----------------------------------------------------------

    def _minute_events(
        self,
        t: int,
        invocations: Mapping[int, int] | Iterable[tuple[int, int]] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if invocations is None:
            col = self.trace.counts[:, t]
            fids = np.flatnonzero(col)
            return fids, col[fids]
        if isinstance(invocations, Mapping):
            items = list(invocations.items())
        else:
            items = [(fid, count) for fid, count in invocations]
        agg: dict[int, int] = {}
        for fid, count in items:
            fid = int(fid)
            count = int(count)
            if not 0 <= fid < self.n_functions:
                raise ValueError(
                    f"invocation fid {fid} out of range "
                    f"0..{self.n_functions - 1}"
                )
            if count <= 0:
                raise ValueError(
                    f"invocation count for fid {fid} must be positive, "
                    f"got {count}"
                )
            agg[fid] = agg.get(fid, 0) + count
        fids = np.array(sorted(agg), dtype=np.int64)
        counts = np.array(
            [agg[f] for f in fids.tolist()], dtype=np.int64
        )
        return fids, counts


def open_session(
    trace: Trace | TraceMeta,
    *,
    policy: str | KeepAlivePolicy = "pulse",
    assignment: dict[int, ModelFamily] | None = None,
    config: SimulationConfig | None = None,
    engine: str = "auto",
    faults: FaultPlan | str | None = None,
    observe: bool | ObservabilityConfig | None = None,
    seed: int = 0,
) -> ControlSession:
    """Open an incremental control-plane session.

    The one positional argument is the workload: a recorded
    :class:`~repro.traces.schema.Trace` (replay mode) or a
    :class:`TraceMeta` (online mode — invocations arrive per
    ``advance()`` call). Everything else mirrors
    :func:`repro.api.simulate` keyword-for-keyword: ``policy`` is a
    registry name or a bound-able policy object (a name's registered
    keep-alive window applies when ``config`` is omitted), ``faults``
    a :class:`FaultPlan` or spec string, ``observe`` an override for
    ``config.observe``. ``assignment`` defaults to the balanced sampler
    (:func:`repro.experiments.assignments.sample_assignment`) with
    ``seed``.
    """
    online = isinstance(trace, TraceMeta)
    if online:
        trace = trace.to_trace()
    if not isinstance(trace, Trace):
        raise TypeError(
            f"trace must be a Trace or TraceMeta, got {type(trace).__name__}"
        )
    cfg = config if config is not None else SimulationConfig()
    if isinstance(policy, str):
        from repro.api import policy_spec

        spec = policy_spec(policy)
        if config is None and spec.keep_alive_window != cfg.keep_alive_window:
            cfg = replace(cfg, keep_alive_window=spec.keep_alive_window)
        policy = spec.factory()
    if isinstance(faults, str):
        faults = FaultPlan.from_spec(faults)
    if faults is not None:
        cfg = replace(cfg, faults=faults)
    if observe is not None:
        cfg = replace(cfg, observe=observe)
    if online:
        if cfg.faults is not None and cfg.faults.perturbs_trace:
            raise ValueError(
                "online sessions (TraceMeta) cannot use trace-perturbing "
                "fault plans — there is no recorded trace to perturb; "
                "open with a Trace, or restrict the plan to runtime faults"
            )
        if type(policy).__name__ == "IdealOraclePolicy":
            raise ValueError(
                "the 'ideal' oracle needs the full future trace and "
                "cannot run in an online session (TraceMeta)"
            )
    if assignment is None:
        from repro.experiments.assignments import sample_assignment

        assignment = sample_assignment(trace.n_functions, seed=seed)
    sim = Simulation(trace, assignment, policy, cfg)
    return ControlSession(sim, engine=engine, online=online)
