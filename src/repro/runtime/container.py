"""Container lifecycle tracking.

The schedule (:mod:`repro.runtime.schedule`) decides *what should be warm*
each minute; this module tracks the containers that realize those
decisions. A container hosts exactly one model variant of one function.
When the planned variant for a function changes between minutes, the old
container is evicted and the new variant's container is pre-warmed in the
background — that pre-warm is a provider-side action (its cost shows up as
that minute's keep-alive memory), not a user-visible cold start. A
user-visible cold start only happens when an invocation arrives while *no*
container for the function is warm.

The pool is an opt-in observability layer of the reference engine
(``SimulationConfig.track_containers``, off by default): it reports
warm-minute totals per variant level, eviction/pre-warm counts and
per-function container churn on ``RunResult.pool_stats``, and checks its
invariants (one live container per function, monotone time) while it
runs. No headline metric reads it, and the fleet engine does not run it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.models.variants import ModelVariant
from repro.runtime.events import EventKind, EventLog

__all__ = ["Container", "ContainerPool", "ContainerState", "PoolStats"]


class ContainerState(enum.Enum):
    """Lifecycle states of a container."""

    WARM = "warm"  # loaded and able to serve warm starts
    EVICTED = "evicted"  # terminal


@dataclass
class Container:
    """One provisioned container instance."""

    container_id: int
    function_id: int
    variant: ModelVariant
    created_minute: int
    state: ContainerState = ContainerState.WARM
    warm_minutes: int = 0
    served_invocations: int = 0
    evicted_minute: int | None = None

    def evict(self, minute: int) -> None:
        if self.state is ContainerState.EVICTED:
            raise RuntimeError(f"container {self.container_id} already evicted")
        self.state = ContainerState.EVICTED
        self.evicted_minute = minute

    @property
    def lifetime_minutes(self) -> int:
        """Minutes the container stayed provisioned (so far, if still warm)."""
        end = self.evicted_minute
        if end is None:
            return self.warm_minutes
        return end - self.created_minute


@dataclass
class PoolStats:
    """Aggregate pool statistics for one run."""

    containers_created: int = 0
    evictions: int = 0
    prewarms: int = 0  # variant switches (background replacement)
    cold_creates: int = 0  # containers created on a user-visible cold start
    warm_mb_minutes: float = 0.0
    warm_minutes_by_level: dict[int, int] = field(default_factory=dict)


class ContainerPool:
    """Tracks at most one live container per function."""

    def __init__(self, events: EventLog | None = None) -> None:
        self._live: dict[int, Container] = {}
        self._next_id = 0
        self._last_minute = -1
        self.stats = PoolStats()
        self._history: list[Container] = []
        self._events = events

    # -- queries -----------------------------------------------------------
    def live_container(self, function_id: int) -> Container | None:
        return self._live.get(function_id)

    @property
    def n_live(self) -> int:
        return len(self._live)

    def history(self) -> list[Container]:
        """All containers ever created (evicted ones included)."""
        return list(self._history)

    # -- transitions --------------------------------------------------------
    def _create(
        self, function_id: int, variant: ModelVariant, minute: int, *, cold: bool
    ) -> Container:
        c = Container(
            container_id=self._next_id,
            function_id=function_id,
            variant=variant,
            created_minute=minute,
        )
        self._next_id += 1
        self._live[function_id] = c
        self._history.append(c)
        self.stats.containers_created += 1
        if cold:
            self.stats.cold_creates += 1
        elif self._events is not None:
            self._events.emit(
                minute, EventKind.PREWARM, function_id, variant.name
            )
        return c

    def reconcile(
        self, function_id: int, desired: ModelVariant | None, minute: int
    ) -> Container | None:
        """Make the live container match the schedule's decision at ``minute``.

        Returns the (possibly new) live container, or ``None`` when the
        function should have nothing warm. Called once per function per
        minute by the engine; ``minute`` must not go backwards.
        """
        if minute < self._last_minute:
            raise ValueError(
                f"time went backwards: reconcile({minute}) after {self._last_minute}"
            )
        self._last_minute = minute
        current = self._live.get(function_id)
        if desired is None:
            if current is not None:
                self._evict(current, function_id, minute)
            return None
        if current is not None and current.variant == desired:
            return current
        if current is not None:  # variant switch: background pre-warm
            self._evict(current, function_id, minute)
        new = self._create(function_id, desired, minute, cold=False)
        self.stats.prewarms += 1
        if current is not None and self._events is not None:
            # First-class switch event alongside the evict/prewarm pair,
            # so Algorithm-2 realizations are directly queryable.
            self._events.emit(
                minute,
                EventKind.VARIANT_SWITCH,
                function_id,
                desired.name,
                float(current.variant.level),
            )
        return new

    def _evict(self, container: Container, function_id: int, minute: int) -> None:
        container.evict(minute)
        del self._live[function_id]
        self.stats.evictions += 1
        if self._events is not None:
            self._events.emit(
                minute, EventKind.EVICTION, function_id, container.variant.name
            )

    def cold_start(
        self, function_id: int, variant: ModelVariant, minute: int
    ) -> Container:
        """Create a container because an invocation found nothing warm."""
        current = self._live.get(function_id)
        if current is not None:
            raise RuntimeError(
                f"cold start requested for function {function_id} at minute "
                f"{minute} but container {current.container_id} is live"
            )
        return self._create(function_id, variant, minute, cold=True)

    def record_served(self, function_id: int, count: int) -> None:
        """Attribute ``count`` served invocations to the live container."""
        c = self._live.get(function_id)
        if c is None:
            raise RuntimeError(
                f"no live container for function {function_id} to serve with"
            )
        c.served_invocations += count

    def tick_all(self) -> None:
        """Charge one warm minute to every live container.

        Called once per simulated minute, at commit time (after the
        cross-function review has settled the minute's final variants).
        """
        for c in self._live.values():
            c.warm_minutes += 1
            self.stats.warm_mb_minutes += c.variant.memory_mb
            lvl = c.variant.level
            self.stats.warm_minutes_by_level[lvl] = (
                self.stats.warm_minutes_by_level.get(lvl, 0) + 1
            )
