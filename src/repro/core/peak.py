"""Keep-alive memory peak detection (§III-B, Algorithm 1).

A minute is a *peak* when its keep-alive memory exceeds the **prior
keep-alive memory** by more than the tunable keep-alive memory threshold
(KM_T, 10 % by default; Figure 11 evaluates 5/10/15 %)::

    is_peak(C) = C > P + KM_T * P

The subtlety is choosing P (Algorithm 1):

- under continuous activity, P is the previous minute's keep-alive
  memory, floored by the average over the sliding local window;
- after a period of *inactivity* (previous memory 0 — think nocturnal or
  diurnal functions waking up) the naive previous-minute rule would flag
  every resumption as a peak and force cold starts, so the detector falls
  back to (a) the local-window average when the system has run long
  enough (≥ 2 × l_window) and the average is informative (> 0), otherwise
  (b) the most recent non-zero memory value, and if none exists
  (system just started) P = ∞ so nothing is flagged before history
  accumulates.

One further accounting choice matters. The flattening loop *changes* the
committed memory, so a detector averaging committed values would ratchet:
each flattened minute lowers the prior, which flags the next minute,
which flattens further, until every keep-alive is shredded. The detector
therefore keeps its window average and last-non-zero over the **demand**
memory — what the function-centric plans asked for *before* flattening —
while the previous-minute term uses the committed (post-flattening)
value, exactly the quantity "keep-alive memory of t-1" denotes.
"""

from __future__ import annotations

import math
from collections import deque

from repro.utils.validation import check_positive, check_positive_int

__all__ = ["PeakDetector"]


class PeakDetector:
    """Stateful Algorithm 1: feed per-minute memory, query peaks."""

    def __init__(
        self,
        memory_threshold: float = 0.10,
        local_window: int = 60,
        prior_rule: str = "algorithm1",
    ):
        check_positive("memory_threshold", memory_threshold)
        check_positive_int("local_window", local_window)
        if prior_rule not in ("algorithm1", "previous_minute"):
            raise ValueError(
                "prior_rule must be 'algorithm1' or 'previous_minute', got "
                f"{prior_rule!r}"
            )
        self.memory_threshold = memory_threshold
        self.local_window = local_window
        self.prior_rule = prior_rule
        # Pre-flattening memory of the last local_window + 1 minutes: the
        # window plus the minute that leaves it on the next observe().
        self._demand: deque[float] = deque(maxlen=local_window + 1)
        self._n_minutes = 0
        self._prev_committed: float | None = None  # post-flattening, t-1
        self._last_nonzero: float | None = None
        self._window_sum = 0.0  # rolling sum of the last local_window demands

    # -- state feed ----------------------------------------------------------
    def observe(self, demand_mb: float, committed_mb: float | None = None) -> None:
        """Commit one minute.

        ``demand_mb`` is the keep-alive memory the plans requested;
        ``committed_mb`` (default: same) is what remained after any
        flattening.
        """
        if demand_mb < 0:
            raise ValueError(f"memory must be >= 0, got {demand_mb}")
        committed = demand_mb if committed_mb is None else committed_mb
        if committed < 0:
            raise ValueError(f"memory must be >= 0, got {committed}")
        self._demand.append(demand_mb)
        self._n_minutes += 1
        self._window_sum += demand_mb
        if self._n_minutes > self.local_window:
            self._window_sum -= self._demand[0]
        if demand_mb > 0:
            self._last_nonzero = demand_mb
        self._prev_committed = committed

    @property
    def minutes_observed(self) -> int:
        return self._n_minutes

    def _window_average(self) -> float:
        n = min(self._n_minutes, self.local_window)
        return self._window_sum / n if n else 0.0

    # -- Algorithm 1 ----------------------------------------------------------
    def prior_memory(self) -> float:
        """P_KaM for the *next* minute, per Algorithm 1.

        With ``prior_rule="previous_minute"`` (the naive ablation of the
        peak-detector design) the prior is simply the previous minute's
        committed memory — no window floor, no inactivity handling.
        """
        if not self._n_minutes:
            return math.inf
        prev = self._prev_committed
        assert prev is not None
        if self.prior_rule == "previous_minute":
            # Naive rule: after inactivity the prior is 0, so any
            # resumption is flagged as a peak — the failure mode §III-B
            # describes ("would result in a high number of cold starts").
            return prev
        if prev > 0:
            # Continuous activity: previous minute, floored by the sliding
            # local-window average of demand (see module docstring).
            return max(prev, self._window_average())
        # Resumption after inactivity.
        if self._n_minutes >= 2 * self.local_window:
            avg = self._window_average()
            if avg > 0:
                return avg
        if self._last_nonzero is not None:
            return self._last_nonzero
        return math.inf

    def is_peak(self, current_memory_mb: float, prior: float | None = None) -> bool:
        """IsPeak(C_KaM, P_KaM): C > P + KM_T × P."""
        if current_memory_mb < 0:
            raise ValueError(f"memory must be >= 0, got {current_memory_mb}")
        p = self.prior_memory() if prior is None else prior
        if math.isinf(p):
            return False
        return current_memory_mb > p * (1.0 + self.memory_threshold)

    def flatten_target(self, prior: float | None = None) -> float:
        """Highest memory that is *not* a peak relative to ``prior``."""
        p = self.prior_memory() if prior is None else prior
        if math.isinf(p):
            return math.inf
        return p * (1.0 + self.memory_threshold)
