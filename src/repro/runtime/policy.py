"""The keep-alive policy interface.

A policy answers three questions the engine asks:

1. :meth:`~KeepAlivePolicy.cold_variant` — an invocation arrived and
   nothing is warm: which variant do we cold-start?
2. :meth:`~KeepAlivePolicy.plan` — an invocation was just served at minute
   *t*: which variant (or nothing) should be warm at each of minutes
   *t+1 … t+K*?
3. :meth:`~KeepAlivePolicy.review_minute` — all of minute *t*'s
   invocations are processed: does the policy want to rewrite the current
   schedule (PULSE's cross-function peak flattening lives here)?

Policies see only the *past*: the engine feeds invocations through
:meth:`~KeepAlivePolicy.observe_invocation` as they happen. Oracle
baselines (used for Tables II/III and the "ideal" series of Figure 6b)
explicitly declare themselves via :attr:`is_oracle` and receive the trace
up front through :meth:`bind`.
"""

from __future__ import annotations

import abc

from repro.models.variants import ModelFamily, ModelVariant
from repro.obs.session import NULL_OBS
from repro.runtime.schedule import KeepAliveSchedule
from repro.traces.schema import Trace

__all__ = ["KeepAlivePolicy"]


class KeepAlivePolicy(abc.ABC):
    """Abstract base for every keep-alive strategy in this repository."""

    #: Human-readable policy name (used in reports and figures).
    name: str = "policy"

    #: True for baselines that legitimately read the future (oracles).
    is_oracle: bool = False

    def __init__(self) -> None:
        self._assignment: dict[int, ModelFamily] | None = None
        self._keep_alive_window: int = 10
        self._n_functions: int | None = None
        #: The bound trace, kept for oracles only (:attr:`is_oracle`):
        #: honest policies never read it, and a snapshot pickles
        #: whatever the policy holds.
        self._trace: Trace | None = None
        #: The run's observability session (:data:`~repro.obs.session.NULL_OBS`
        #: unless the engine attached a live one). Policy instrumentation
        #: guards on its ``*_enabled`` flags, so unobserved runs pay one
        #: attribute load + branch per guarded site.
        self.obs = NULL_OBS

    # -- lifecycle -----------------------------------------------------------
    def attach_observability(self, obs=None) -> None:
        """Engine hook: wire the run's telemetry before :meth:`bind`.

        Called by every engine before ``bind``, so ``on_bind`` can
        propagate ``self.obs`` into policy sub-components. It replaces
        what an earlier run attached: ``None`` detaches (falls back to
        :data:`~repro.obs.session.NULL_OBS`), so a policy object reused
        for an unobserved run records nothing into the previous run's
        session. Wrapper policies forward this to their inner policies.
        """
        self.obs = obs if obs is not None else NULL_OBS

    def bind(
        self,
        trace: Trace,
        assignment: dict[int, ModelFamily],
        keep_alive_window: int,
    ) -> None:
        """Attach the policy to a run.

        Called once by the engine before the first minute. The engine
        hands the trace over only so oracles can read its counts: the
        policy keeps it only when :attr:`is_oracle` is set. Honest
        policies get :attr:`n_functions` and the live
        :meth:`observe_invocation` feed. Wrappers that bind inner
        policies override this, call ``super().bind(...)`` and pass the
        trace on.
        """
        if len(assignment) != trace.n_functions:
            raise ValueError(
                f"assignment covers {len(assignment)} functions, trace has "
                f"{trace.n_functions}"
            )
        for fid in range(trace.n_functions):
            if fid not in assignment:
                raise ValueError(f"assignment missing function {fid}")
        self._assignment = dict(assignment)
        self._keep_alive_window = keep_alive_window
        self._n_functions = trace.n_functions
        self._trace = trace if self.is_oracle else None
        self.on_bind()

    def on_bind(self) -> None:
        """Subclass hook; runs after :meth:`bind` validated the inputs."""

    # -- bound-state accessors -------------------------------------------
    @property
    def keep_alive_window(self) -> int:
        return self._keep_alive_window

    @property
    def assignment(self) -> dict[int, ModelFamily]:
        if self._assignment is None:
            raise RuntimeError(f"policy {self.name!r} is not bound to a run yet")
        return self._assignment

    def family(self, function_id: int) -> ModelFamily:
        """The model family assigned to a function."""
        return self.assignment[function_id]

    @property
    def n_functions(self) -> int:
        if self._n_functions is None:
            raise RuntimeError(f"policy {self.name!r} is not bound to a run yet")
        return self._n_functions

    # -- the engine-facing decisions --------------------------------------
    def observe_invocation(self, function_id: int, minute: int, count: int) -> None:
        """Live feed of invocations; default is stateless."""

    @abc.abstractmethod
    def cold_variant(self, function_id: int, minute: int) -> ModelVariant:
        """Variant to cold-start when an invocation finds nothing warm."""

    @abc.abstractmethod
    def plan(self, function_id: int, minute: int) -> list[ModelVariant | None]:
        """Keep-alive plan for offsets 1..K after an invocation at ``minute``."""

    def review_minute(self, minute: int, schedule: KeepAliveSchedule) -> None:
        """Cross-function hook after all of ``minute``'s invocations.

        Policies with a global stage (PULSE, MILP) rewrite the schedule's
        entries for ``minute`` (and later) here. Default: do nothing.
        """

    # -- helpers -----------------------------------------------------------
    def _full_window_plan(self, variant: ModelVariant | None) -> list[ModelVariant | None]:
        """A plan holding one decision for the whole keep-alive window."""
        return [variant] * self._keep_alive_window

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
