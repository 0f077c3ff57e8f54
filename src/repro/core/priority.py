"""The priority structure (§III-B, Eq. 1).

PULSE counts how many times each model has been downgraded; during a peak
the counts are min-max normalized (Eq. 1) so the most-downgraded model
gets priority 1 and is therefore *protected* from further downgrades
(priority is added into the utility value, and the lowest-utility model is
the one downgraded). When every model has the same count, Eq. 1's
degenerate branch yields all zeros.

"To minimize memory overhead, the priority structure is implemented as an
array" — we keep that representation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["PriorityStructure", "normalize"]


def normalize(values: np.ndarray) -> np.ndarray:
    """Eq. 1 min-max normalization.

    ``(X - Xmin) / (Xmax - Xmin)`` elementwise; when ``Xmax == Xmin`` the
    equation degenerates to ``X - Xmin`` (all zeros).
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.copy()
    vmin = values.min()
    vmax = values.max()
    if vmax == vmin:
        return values - vmin
    return (values - vmin) / (vmax - vmin)


class PriorityStructure:
    """Per-function downgrade counters with Eq. 1 normalization."""

    def __init__(self, n_functions: int):
        check_positive_int("n_functions", n_functions)
        # "Initialize the priority structure as an array with zeros for all
        # models... immediately after the system has started." (Alg. 2)
        self._counts = np.zeros(n_functions, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._counts)

    def record_downgrade(self, function_id: int) -> None:
        """+1 for the model that was just downgraded (Alg. 2, line 10)."""
        self._check(function_id)
        self._counts[function_id] += 1

    def record_downgrades(self, function_ids: np.ndarray, n: np.ndarray) -> None:
        """``n[i]`` :meth:`record_downgrade` calls for ``function_ids[i]``
        at once — one review's worth of Alg. 2 line 10."""
        ids = np.asarray(function_ids, dtype=np.int64)
        bad = ids[(ids < 0) | (ids >= len(self._counts))]
        if bad.size:
            self._check(int(bad[0]))
        np.add.at(self._counts, ids, np.asarray(n, dtype=np.int64))

    def count(self, function_id: int) -> int:
        self._check(function_id)
        return int(self._counts[function_id])

    @property
    def counts(self) -> np.ndarray:
        """A copy of the raw downgrade counts."""
        return self._counts.copy()

    def normalized(self) -> np.ndarray:
        """All priorities after Eq. 1 normalization, each in [0, 1]."""
        return normalize(self._counts)

    def normalized_at(self, function_ids: list[int]) -> list[float]:
        """:meth:`normalized` at ``function_ids`` (valid ids), as Python
        floats equal to its values bit for bit: ``int / int`` is the
        correctly rounded quotient, as numpy's float64 division of the
        exactly converted counts is."""
        counts = self._counts.tolist()
        lo = min(counts)
        span = max(counts) - lo
        if not span:
            return [0.0] * len(function_ids)
        return [(counts[fid] - lo) / span for fid in function_ids]

    def priority(self, function_id: int) -> float:
        """One model's normalized priority (the *Pr* utility component)."""
        self._check(function_id)
        return float(self.normalized()[function_id])

    def _check(self, function_id: int) -> None:
        if not 0 <= function_id < len(self._counts):
            raise IndexError(
                f"function_id {function_id} out of range 0..{len(self._counts) - 1}"
            )
