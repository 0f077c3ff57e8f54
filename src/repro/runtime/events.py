"""Structured event log for simulation runs.

The engine can record a typed event stream — invocations and how they
were served, container pre-warms/evictions, per-minute memory commits —
which gives the observability a provider would need to debug a
keep-alive policy in production: *why* was this invocation cold, what
was warm at that minute, when did the variant switch?

Enable with ``SimulationConfig(record_events=True)`` on the reference
engine (``engine="fleet"`` refuses it; its sampled decision traces are
the fleet's record of why); the log is returned on ``RunResult.events``. Events are lightweight frozen
dataclasses; the log supports filtering by kind and function.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Iterator

__all__ = ["Event", "EventKind", "EventLog"]


class EventKind(enum.Enum):
    """What happened."""

    COLD_START = "cold_start"  # invocation found nothing warm
    WARM_START = "warm_start"  # invocation served by a warm container
    PREWARM = "prewarm"  # platform brought a container up in the background
    EVICTION = "eviction"  # container released
    MEMORY_COMMIT = "memory_commit"  # minute's keep-alive memory settled
    DOWNGRADE = "downgrade"  # a keep-alive moved to a lower variant / dropped
    VARIANT_SWITCH = "variant_switch"  # pool replaced a container's variant
    SPAWN_FAILURE = "spawn_failure"  # injected container-spawn failure(s)
    POLICY_FAULT = "policy_fault"  # policy crashed; crash-isolation engaged


@dataclass(frozen=True)
class Event:
    """One event.

    ``function_id`` is -1 for platform-wide events (memory commits);
    ``variant_name`` / ``value`` carry kind-specific detail:

    - COLD_START / WARM_START: the serving variant; ``value`` is the
      number of invocations served in that minute by that path;
    - PREWARM / EVICTION: the variant brought up / released;
    - MEMORY_COMMIT: ``value`` is the committed keep-alive memory in MB;
    - DOWNGRADE: the variant downgraded *to* (``None`` when the
      keep-alive was dropped entirely); ``value`` is 1.0 when the
      capacity pressure valve forced it, 0.0 for a policy decision
      (Algorithm 2 / MILP);
    - VARIANT_SWITCH: the new variant the pool brought up; ``value`` is
      the level of the variant it replaced;
    - SPAWN_FAILURE: the variant whose spawn failed; ``value`` is the
      number of failed attempts before a spawn succeeded;
    - POLICY_FAULT: recorded when the crash-isolation wrapper catches a
      policy exception; ``variant_name`` is the failing hook
      (``"plan"``, ``"cold_variant"``, ...).
    """

    minute: int
    kind: EventKind
    function_id: int = -1
    variant_name: str | None = None
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.minute < 0:
            raise ValueError(f"minute must be >= 0, got {self.minute}")


class EventLog:
    """An append-only, queryable event stream."""

    def __init__(self) -> None:
        self._events: list[Event] = []

    # -- recording ----------------------------------------------------------
    def record(self, event: Event) -> None:
        if self._events and event.minute < self._events[-1].minute:
            raise ValueError(
                f"events must be recorded in time order "
                f"({event.minute} < {self._events[-1].minute})"
            )
        self._events.append(event)

    def emit(
        self,
        minute: int,
        kind: EventKind,
        function_id: int = -1,
        variant_name: str | None = None,
        value: float = 0.0,
    ) -> None:
        """Convenience constructor + record."""
        self.record(Event(minute, kind, function_id, variant_name, value))

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, i: int) -> Event:
        return self._events[i]

    def of_kind(self, kind: EventKind) -> list[Event]:
        return [e for e in self._events if e.kind is kind]

    def of_kinds(self, *kinds: EventKind) -> list[Event]:
        """Events matching any of ``kinds``, in time order."""
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def for_function(self, function_id: int) -> list[Event]:
        return [e for e in self._events if e.function_id == function_id]

    def between(self, start: int, stop: int) -> list[Event]:
        """Events with ``start <= minute < stop``."""
        return [e for e in self._events if start <= e.minute < stop]

    def count(self, kind: EventKind) -> int:
        return sum(1 for e in self._events if e.kind is kind)

    def cold_start_minutes(self, function_id: int) -> list[int]:
        """Minutes at which a function cold-started (debugging aid)."""
        return [
            e.minute
            for e in self._events
            if e.kind is EventKind.COLD_START and e.function_id == function_id
        ]
