"""Inter-arrival probability estimation (§III-A).

For every function PULSE maintains invocation history over **two periods**
— the immediate past (a sliding *local window*) and the full duration
since the system started — because inter-arrival behaviour drifts over
time (Figure 2). For each period it computes, at minute resolution, the
empirical probability of each inter-arrival value inside the keep-alive
window ("when the inter-arrival time of 2 appears 10 times, the
probability of 2 is 10 divided by the total number of inter-arrival
times"), then averages the two periods' probabilities.

The estimator is strictly causal: it sees arrivals through
:meth:`InterArrivalEstimator.observe` in time order and never looks ahead.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["InterArrivalEstimator"]


def _capped(values: list[float]) -> list[float]:
    """``values`` with every element above 1.0 replaced by 1.0."""
    if max(values) <= 1.0:
        return values
    return [v if v <= 1.0 else 1.0 for v in values]


def _frozen(values: list[float]) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


class _FunctionHistory:
    """Arrival bookkeeping for one function.

    The histograms are Python ``int`` lists and the cached vectors Python
    ``float`` lists: at the window's ten elements, plain arithmetic costs
    a third of what the equivalent numpy ops do in call overhead.

    ``version`` increments on every mutation (new gap recorded, old gap
    evicted); the probability queries cache their result against it, so
    repeated queries between mutations — e.g. the plan, the utility *Ip*
    and the drop-protection check all within one review minute — reuse
    one computation instead of re-normalizing the histograms each time.
    """

    __slots__ = (
        "last_arrival",
        "lifetime_counts",
        "lifetime_in",
        "lifetime_total",
        "recent",
        "recent_counts",
        "recent_in",
        "recent_total",
        "version",
        "exact_version",
        "exact_cache",
        "exact_array",
        "mode_version",
        "mode_cache",
        "mode_array",
    )

    def __init__(self, window: int):
        self.last_arrival: int | None = None
        # index d-1 holds the count of inter-arrivals equal to d minutes,
        # for d in 1..window; longer gaps only grow the totals. ``*_in``
        # is the sum of the list (gaps inside the window), ``*_total``
        # counts every gap.
        self.lifetime_counts = [0] * window
        self.lifetime_in = 0
        self.lifetime_total = 0
        self.recent: deque[tuple[int, int]] = deque()  # (arrival minute, gap)
        self.recent_counts = [0] * window
        self.recent_in = 0
        self.recent_total = 0
        self.version = 0
        self.exact_version = -1  # version the caches were computed at
        self.exact_cache: list[float] | None = None
        self.exact_array: np.ndarray | None = None  # built on public read
        self.mode_version = -1
        self.mode_cache: list[float] | None = None
        self.mode_array: np.ndarray | None = None


class InterArrivalEstimator:
    """Per-function inter-arrival probabilities over the keep-alive window.

    Parameters
    ----------
    n_functions:
        Number of functions in the run.
    window:
        Keep-alive window length in minutes (the paper's 10).
    local_window:
        Length in minutes of the sliding immediate-past period
        (the paper's ``l_window``; evaluated at 10/60/120 in Figure 12).
    normalization:
        Denominator of the empirical probabilities. ``"all"`` divides a
        gap value's count by the total number of inter-arrivals (the
        paper's literal formula); ``"window"`` divides by the number of
        inter-arrivals that land *inside* the keep-alive window — i.e.
        the probability of re-arrival at minute *d* conditioned on
        re-arrival within the window ("the probabilities associated with
        the inter-arrival times during the keep-alive period"). The
        conditional reading concentrates probability mass and therefore
        keeps higher-quality variants alive at likely minutes; it is the
        default because it reproduces the paper's accuracy/cost balance.
    mode:
        Shape of the per-offset probability handed to the greedy mapper.
        ``"exact"`` is P(gap = d) — the paper's literal formula.
        ``"survival"`` is P(gap ≥ d): the probability that the arrival is
        still to come at offset *d*. It is monotone non-increasing, so the
        greedy band mapping gives every variant one *contiguous duration*
        inside the window — matching §III-A's "selects the model variant
        ... and specifies the duration for the keep-alive of each
        variant" — and it is the default because it reproduces the
        paper's reported accuracy/cost/service-time balance (see
        EXPERIMENTS.md for the ablation across modes).
        ``"cumulative"`` is P(gap ≤ d), included for the ablation.
        ``"hazard"`` is P(gap = d | gap ≥ d) — the discrete hazard rate:
        the probability the arrival lands at offset *d* given it has not
        happened yet. It concentrates exactly at the likely arrival
        minutes (a 6-minute timer gets hazard 1 at offset 6 and 0
        before), which is the paper's description of the outcome: "the
        high-quality model is kept alive precisely during the period (at
        minute resolution) of an invocation".
    """

    def __init__(
        self,
        n_functions: int,
        window: int = 10,
        local_window: int = 60,
        normalization: str = "window",
        mode: str = "survival",
    ):
        check_positive_int("n_functions", n_functions)
        check_positive_int("window", window)
        check_positive_int("local_window", local_window)
        if normalization not in ("all", "window"):
            raise ValueError(
                f"normalization must be 'all' or 'window', got {normalization!r}"
            )
        if mode not in ("exact", "survival", "cumulative", "hazard"):
            raise ValueError(
                "mode must be 'exact', 'survival', 'cumulative' or "
                f"'hazard', got {mode!r}"
            )
        self.n_functions = n_functions
        self.window = window
        self.local_window = local_window
        self.normalization = normalization
        self.mode = mode
        self._h = [_FunctionHistory(window) for _ in range(n_functions)]
        self._now = -1

    # -- feeding -----------------------------------------------------------
    def observe(self, function_id: int, minute: int) -> None:
        """Record an arrival minute (multiple invocations in the same
        minute are one arrival — the paper's minute resolution)."""
        h = self._history(function_id)
        if minute < self._now:
            raise ValueError(
                f"arrivals must be observed in time order ({minute} < {self._now})"
            )
        self._now = max(self._now, minute)
        if h.last_arrival is not None:
            if minute == h.last_arrival:
                return  # same minute: not a new arrival at this resolution
            gap = minute - h.last_arrival
            self._record_gap(h, minute, gap)
        h.last_arrival = minute

    def _record_gap(self, h: _FunctionHistory, minute: int, gap: int) -> None:
        h.lifetime_total += 1
        h.recent.append((minute, gap))
        h.recent_total += 1
        if gap <= self.window:
            h.lifetime_counts[gap - 1] += 1
            h.lifetime_in += 1
            h.recent_counts[gap - 1] += 1
            h.recent_in += 1
        h.version += 1

    def _evict(self, h: _FunctionHistory, now: int) -> None:
        cutoff = now - self.local_window
        recent = h.recent
        if not recent or recent[0][0] >= cutoff:
            return
        window = self.window
        while recent and recent[0][0] < cutoff:
            _, gap = recent.popleft()
            h.recent_total -= 1
            if gap <= window:
                h.recent_counts[gap - 1] -= 1
                h.recent_in -= 1
        h.version += 1

    # -- queries -----------------------------------------------------------
    # Both query paths cache against the history's version counter. Eviction
    # runs *before* the cache check, so the cached vector is always the one
    # a fresh computation at ``now`` would produce. The in-package callers
    # (the plan, *Ip*, the drop-protection maximum) read the float lists
    # from ``probability_values``/``exact_values``; the public ``ndarray``
    # queries wrap the same list once per version, read-only, since the
    # array is shared with the cache.
    def probabilities(self, function_id: int, now: int) -> np.ndarray:
        """Per-offset probabilities in the configured ``mode``, d=1..window."""
        if self.mode == "exact":
            return self.exact_probabilities(function_id, now)
        h = self._history(function_id)
        values = self._mode_values(h, now)
        if h.mode_array is None:
            h.mode_array = _frozen(values)
        return h.mode_array

    def exact_probabilities(self, function_id: int, now: int) -> np.ndarray:
        """P(next arrival exactly ``d`` minutes after an arrival), d=1..window.

        The average of the local-window and lifetime empirical
        distributions. All-zero when the function has no inter-arrival
        history yet.
        """
        h = self._history(function_id)
        self._evict(h, now)
        values = self._exact(h)
        if h.exact_array is None:
            h.exact_array = _frozen(values)
        return h.exact_array

    def probability_values(self, function_id: int, now: int) -> list[float]:
        """:meth:`probabilities` as a list of Python floats (the same
        values bit for bit). Shared with the cache: do not mutate."""
        if self.mode == "exact":
            return self.exact_values(function_id, now)
        return self._mode_values(self._history(function_id), now)

    def exact_values(self, function_id: int, now: int) -> list[float]:
        """:meth:`exact_probabilities` as a list of Python floats (the
        same values bit for bit). Shared with the cache: do not mutate."""
        h = self._history(function_id)
        self._evict(h, now)
        return self._exact(h)

    def _mode_values(self, h: _FunctionHistory, now: int) -> list[float]:
        # ``accumulate`` adds sequentially, as numpy's ``cumsum`` (an
        # ``add.accumulate``) does, and capping at 1.0 is
        # ``np.minimum(x, 1.0)`` on non-NaN input, so the lists equal the
        # former array formulas bit for bit.
        self._evict(h, now)
        if h.mode_version == h.version and h.mode_cache is not None:
            return h.mode_cache
        exact = self._exact(h)
        if self.mode == "cumulative":
            out = _capped(list(accumulate(exact)))
        else:
            survival = _capped(list(accumulate(reversed(exact))))
            survival.reverse()
            if self.mode == "survival":
                out = survival
            else:
                # hazard: P(gap = d | gap >= d); 0 where no mass remains.
                out = [
                    min(p / s, 1.0) if s > 0 else 0.0
                    for p, s in zip(exact, survival)
                ]
        h.mode_version = h.version
        h.mode_cache = out
        h.mode_array = None
        return out

    def _exact(self, h: _FunctionHistory) -> list[float]:
        if h.exact_version == h.version and h.exact_cache is not None:
            return h.exact_cache
        if self.normalization == "window":
            lifetime_denom = h.lifetime_in
            recent_denom = h.recent_in
        else:
            lifetime_denom = h.lifetime_total
            recent_denom = h.recent_total
        # int / int is the correctly rounded quotient, as numpy's
        # float64 division of the (exactly converted) counts is.
        if lifetime_denom and recent_denom:
            out = [
                (a / lifetime_denom + b / recent_denom) / 2.0
                for a, b in zip(h.lifetime_counts, h.recent_counts)
            ]
        elif lifetime_denom:
            # Only one period has data (e.g. right after start): use it
            # alone rather than averaging against an uninformative zero
            # vector.
            out = [a / lifetime_denom for a in h.lifetime_counts]
        elif recent_denom:
            out = [b / recent_denom for b in h.recent_counts]
        else:
            out = [0.0] * self.window
        h.exact_version = h.version
        h.exact_cache = out
        h.exact_array = None
        return out

    def invocation_probability(self, function_id: int, now: int) -> float:
        """The paper's *Ip*: probability of an invocation at the current
        offset since the function's last arrival.

        Offsets at or beyond the window (or functions never seen) give 0;
        an arrival in this very minute gives 1 (it *is* being invoked).
        """
        h = self._history(function_id)
        if h.last_arrival is None:
            return 0.0
        offset = now - h.last_arrival
        if offset <= 0:
            return 1.0
        if offset > self.window:
            return 0.0
        # Ip is always the exact-minute probability, independent of the
        # planning mode: it scores the chance of an arrival *now*.
        self._evict(h, now)
        return self._exact(h)[offset - 1]

    def last_arrival(self, function_id: int) -> int | None:
        """Minute of the function's most recent arrival, if any."""
        return self._history(function_id).last_arrival

    def n_gaps(self, function_id: int) -> tuple[int, int]:
        """(lifetime, local-window) inter-arrival sample sizes."""
        h = self._history(function_id)
        return h.lifetime_total, h.recent_total

    def _history(self, function_id: int) -> _FunctionHistory:
        if not 0 <= function_id < self.n_functions:
            raise IndexError(
                f"function_id {function_id} out of range 0..{self.n_functions - 1}"
            )
        return self._h[function_id]
