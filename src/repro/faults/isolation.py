"""Policy-crash isolation: one bad policy decision must not kill a run.

:class:`ResilientPolicy` wraps any :class:`~repro.runtime.policy.KeepAlivePolicy`
and catches exceptions from every engine-facing hook. A production
platform cannot crash a node because one tenant's keep-alive heuristic
threw — it isolates the failure, falls back to a safe default, and keeps
serving. The contract here mirrors that:

- a crash in a *per-function* hook (``cold_variant``, ``plan``,
  ``observe_invocation``) permanently **degrades that function** to the
  provider default the paper baselines against: keep the family's
  highest-quality variant warm for a fixed 10 minutes after each
  invocation (OpenWhisk's policy). Other functions keep running the
  inner policy untouched;
- a crash in the *cross-function* review stage (``review_minute``)
  disables the review globally — per-function plans
  keep flowing, the global peak-flattening stage is lost;
- a crash in ``bind`` degrades every function from minute 0;
- every caught fault is counted (``RunResult.n_policy_faults``),
  recorded on the decision trace (``policy_fault`` records — ``repro
  inspect --faults`` answers "why did this function fall back").

The wrapper reports ``resilience_stats(horizon)`` — the engines collect
it after the run via duck typing, so plain policies pay nothing.

Determinism: wrapped policies run on the reference loop (the fleet
engine compiles only bare PULSE and the fixed baselines), which calls
every hook at fixed points — the serving hooks per (function, minute)
and the review stage every minute, idle or not. A given policy and
fault plan therefore fault at the same minutes in a batch run, a
stepped session and a resumed run.
"""

from __future__ import annotations

from repro.models.variants import ModelFamily
from repro.runtime.policy import KeepAlivePolicy
from repro.traces.schema import Trace

__all__ = ["ResilientPolicy", "FALLBACK_WINDOW_MINUTES"]

#: The fixed keep-alive a degraded function falls back to: the provider
#: default the paper describes (OpenWhisk keeps a container warm 10
#: minutes after each invocation).
FALLBACK_WINDOW_MINUTES = 10


class ResilientPolicy(KeepAlivePolicy):
    """Crash-isolation wrapper around any keep-alive policy."""

    def __init__(self, inner: KeepAlivePolicy):
        super().__init__()
        if isinstance(inner, ResilientPolicy):
            raise ValueError("ResilientPolicy is already crash-isolated")
        self._inner = inner
        # Reports and figures keep the inner policy's name: resilience is
        # a platform property, not a different strategy.
        self.name = inner.name
        self.is_oracle = inner.is_oracle
        #: fid -> minute the function degraded to the fixed fallback.
        self.degraded_since: dict[int, int] = {}
        self._review_dead = False
        self._n_faults = 0
        self._inner_has_review = (
            type(inner).review_minute is not KeepAlivePolicy.review_minute
        )

    # -- lifecycle ---------------------------------------------------------
    def attach_observability(self, obs=None) -> None:
        super().attach_observability(obs)
        self._inner.attach_observability(obs)

    def bind(
        self,
        trace: Trace,
        assignment: dict[int, ModelFamily],
        keep_alive_window: int,
    ) -> None:
        super().bind(trace, assignment, keep_alive_window)
        try:
            self._inner.bind(trace, assignment, keep_alive_window)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            self._record_fault(0, -1, "bind", exc)
            self._review_dead = True
            for fid in range(trace.n_functions):
                self.degraded_since.setdefault(fid, 0)

    # -- fault bookkeeping -------------------------------------------------
    def _record_fault(self, minute: int, fid: int, hook: str, exc: Exception) -> None:
        self._n_faults += 1
        error = f"{type(exc).__name__}: {exc}"
        if self.obs.decisions_enabled:
            self.obs.record_policy_fault(minute, fid, hook, error)

    def _degrade(self, fid: int, minute: int, hook: str, exc: Exception) -> None:
        self._record_fault(minute, fid, hook, exc)
        self.degraded_since.setdefault(fid, minute)

    def _fallback_variant(self, fid: int):
        return self.family(fid).highest

    def _fallback_plan(self, fid: int):
        window = self._keep_alive_window
        keep = min(FALLBACK_WINDOW_MINUTES, window)
        # Pad with None so a long-window inner plan already in the
        # schedule is cleared beyond the fixed 10 minutes.
        return [self.family(fid).highest] * keep + [None] * (window - keep)

    # -- engine-facing hooks, each crash-isolated --------------------------
    def observe_invocation(self, function_id: int, minute: int, count: int) -> None:
        if function_id in self.degraded_since:
            return
        try:
            self._inner.observe_invocation(function_id, minute, count)
        except Exception as exc:  # noqa: BLE001
            self._degrade(function_id, minute, "observe_invocation", exc)

    def cold_variant(self, function_id: int, minute: int):
        if function_id in self.degraded_since:
            return self._fallback_variant(function_id)
        try:
            return self._inner.cold_variant(function_id, minute)
        except Exception as exc:  # noqa: BLE001
            self._degrade(function_id, minute, "cold_variant", exc)
            return self._fallback_variant(function_id)

    def plan(self, function_id: int, minute: int):
        if function_id in self.degraded_since:
            return self._fallback_plan(function_id)
        try:
            return self._inner.plan(function_id, minute)
        except Exception as exc:  # noqa: BLE001
            self._degrade(function_id, minute, "plan", exc)
            return self._fallback_plan(function_id)

    def review_minute(self, minute: int, schedule) -> None:
        if self._review_dead or not self._inner_has_review:
            return
        try:
            self._inner.review_minute(minute, schedule)
        except Exception as exc:  # noqa: BLE001
            self._record_fault(minute, -1, "review_minute", exc)
            self._review_dead = True

    # -- resilience reporting ----------------------------------------------
    def resilience_stats(self, horizon: int) -> dict[str, int]:
        """Counters the engines fold into ``RunResult`` after the run."""
        degraded = sum(
            max(0, horizon - since) for since in self.degraded_since.values()
        )
        return {
            "n_policy_faults": self._n_faults,
            "n_degraded_minutes": degraded,
        }

    def __repr__(self) -> str:
        return f"ResilientPolicy({self._inner!r})"
