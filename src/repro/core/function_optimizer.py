"""Function-centric (individual) optimization (§III-A).

After an invocation of a function at minute *t*, decide — for each of the
next K minutes — which variant to keep alive, by greedily mapping that
minute's invocation probability through the threshold scheme. High
probability → high-accuracy variant warm exactly when an arrival is
likely; low probability → a cheap variant that still prevents a cold
start.

Functions with no inter-arrival history yet fall back to keeping the
*highest* variant alive for the full window — exactly the fixed
OpenWhisk behaviour — so PULSE never performs worse than the baseline
before it has data to act on.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.interarrival import InterArrivalEstimator
from repro.core.thresholds import ThresholdScheme
from repro.models.variants import ModelFamily, ModelVariant
from repro.obs.session import NULL_OBS

__all__ = ["FunctionCentricOptimizer"]


class FunctionCentricOptimizer:
    """Greedy per-function variant scheduling over the keep-alive window."""

    #: Observability session; the owning policy replaces this at bind
    #: time when the run is observed (see ``PulsePolicy.on_bind``).
    obs = NULL_OBS

    def __init__(
        self,
        estimator: InterArrivalEstimator,
        scheme: ThresholdScheme,
        cold_start_fallback: str = "highest",
    ):
        if cold_start_fallback not in ("highest", "lowest"):
            raise ValueError(
                f"cold_start_fallback must be 'highest' or 'lowest', "
                f"got {cold_start_fallback!r}"
            )
        self.estimator = estimator
        self.scheme = scheme
        self.cold_start_fallback = cold_start_fallback

    def plan(
        self, function_id: int, minute: int, family: ModelFamily
    ) -> list[ModelVariant | None]:
        """The keep-alive plan for offsets 1..K after an arrival at ``minute``."""
        obs = self.obs
        estimator = self.estimator
        if obs.spans_enabled:
            t0 = perf_counter()
            probs = estimator.probability_values(function_id, minute)
            obs.spans.add("estimate", perf_counter() - t0)
        else:
            probs = estimator.probability_values(function_id, minute)
        lifetime, recent = estimator.n_gaps(function_id)
        if lifetime == 0 and recent == 0:
            # No history: behave like the fixed policy until data exists.
            fallback = (
                family.highest
                if self.cold_start_fallback == "highest"
                else family.lowest
            )
            return [fallback] * estimator.window
        if obs.decisions_enabled:
            # The engine's plan record claims this snapshot after set_plan.
            obs.stage_probs(function_id, minute, probs)
        t0 = perf_counter() if obs.spans_enabled else 0.0
        # One vector check and one comprehension per plan. Every mode's
        # values lie in [0, 1] (count / total for exact, capped sums
        # for the others), so the list goes to the scheme as is; the
        # levels a scheme returns are in range, so the variants are
        # indexed directly.
        levels = self.scheme.select_levels(probs, family.n_variants)
        variants = family.variants
        plan = [None if level is None else variants[level] for level in levels]
        if obs.spans_enabled:
            obs.spans.add("band-mapping", perf_counter() - t0)
        return plan

    def invocation_probability(self, function_id: int, minute: int) -> float:
        """Expose *Ip* for the cross-function utility computation."""
        return self.estimator.invocation_probability(function_id, minute)

    def max_remaining_probability(self, function_id: int, minute: int) -> float:
        """Highest invocation probability over the function's *remaining*
        keep-alive window (offsets from now through K after its last
        arrival).

        Used by the global optimizer's drop protection: a keep-alive may
        only be dropped entirely when the function has no chance of
        invocation at any minute its plan still covers — the probability
        at the current minute alone would wrongly shed functions whose
        arrival mode sits later in the window (e.g. a 7-minute timer
        reviewed at offset 2).
        """
        last = self.estimator.last_arrival(function_id)
        if last is None:
            return 0.0
        offset = minute - last
        if offset <= 0:
            return 1.0
        window = self.estimator.window
        if offset > window:
            return 0.0
        return max(self.estimator.exact_values(function_id, minute)[offset - 1 :])
