"""Probability-threshold schemes for the greedy variant selection (§III-A, §V).

With *N* variants, PULSE divides the invocation-probability space [0, 1]
into areas and assigns the lowest-accuracy variant to the lowest-
probability area, and so on. The paper evaluates two schemes (Figure 10):

- **T1** — N areas separated by N-1 thresholds at 1/N, 2/N, …, (N-1)/N.
  Probability 0 still maps to the lowest variant: PULSE "ensures that at
  least the container with low-quality model is kept alive every 10
  minutes after an invocation" (§V).
- **T2** — reserves the lowest variant for probability exactly 0 and
  splits (0, 1] into N-1 areas (N-2 thresholds) over the remaining
  variants.

Both return a *variant level* (0 = lowest accuracy); the paper's
robustness claim is that any scheme keeping "the variant with the highest
accuracy at higher invocation probabilities" works, which
:class:`MonotoneScheme` (the ablation scheme with arbitrary monotone cut
points) lets you test directly.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from collections.abc import Sequence

from repro.utils.validation import check_positive_int

__all__ = [
    "MonotoneScheme",
    "TechniqueT1",
    "TechniqueT2",
    "ThresholdScheme",
    "get_scheme",
]


class ThresholdScheme(abc.ABC):
    """Maps an invocation probability to a variant level (or to ``None``
    for "do not keep anything alive")."""

    name: str = "scheme"

    @abc.abstractmethod
    def select_level(self, probability: float, n_variants: int) -> int | None:
        """Variant level for ``probability``; ``None`` keeps nothing alive."""

    def select_levels(
        self, probabilities: Sequence[float], n_variants: int
    ) -> list[int | None]:
        """:meth:`select_level` over a whole plan's probabilities.

        The built-in schemes override this with one vector check and one
        comprehension; this fallback maps element by element, so a scheme
        that only defines :meth:`select_level` still works, and checks
        that every level it returns exists.
        """
        levels = [self.select_level(p, n_variants) for p in probabilities]
        for level in levels:
            if level is not None and not 0 <= level < n_variants:
                raise IndexError(
                    f"scheme {self.name!r} returned level {level}, outside "
                    f"0..{n_variants - 1}"
                )
        return levels

    def _check(self, probability: float, n_variants: int) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability!r}")
        check_positive_int("n_variants", n_variants)

    def _check_all(self, probabilities: Sequence[float], n_variants: int) -> None:
        """:meth:`_check` for every element, with C-level passes: a NaN
        anywhere makes the sum NaN, and without one ``min``/``max``
        bound the vector. The first offending element raises the same
        message the per-element check would."""
        if len(probabilities):
            total = sum(probabilities)
            if total != total or min(probabilities) < 0.0 or max(probabilities) > 1.0:
                for p in probabilities:
                    self._check(p, n_variants)
        check_positive_int("n_variants", n_variants)


class TechniqueT1(ThresholdScheme):
    """The default scheme: N equal probability areas for N variants."""

    name = "T1"

    def select_level(self, probability: float, n_variants: int) -> int | None:
        self._check(probability, n_variants)
        return min(int(probability * n_variants), n_variants - 1)

    def select_levels(
        self, probabilities: Sequence[float], n_variants: int
    ) -> list[int | None]:
        self._check_all(probabilities, n_variants)
        top = n_variants - 1
        return [
            level if (level := int(p * n_variants)) < top else top
            for p in probabilities
        ]


class TechniqueT2(ThresholdScheme):
    """Lowest variant reserved for probability 0; N-1 areas over (0, 1]."""

    name = "T2"

    def select_level(self, probability: float, n_variants: int) -> int | None:
        self._check(probability, n_variants)
        if probability == 0.0 or n_variants == 1:
            return 0
        upper = n_variants - 1  # number of areas over (0, 1]
        return 1 + min(int(probability * upper), upper - 1)

    def select_levels(
        self, probabilities: Sequence[float], n_variants: int
    ) -> list[int | None]:
        self._check_all(probabilities, n_variants)
        if n_variants == 1:
            return [0] * len(probabilities)
        upper = n_variants - 1
        top = upper - 1
        return [
            0 if p == 0.0 else 1 + (a if (a := int(p * upper)) < top else top)
            for p in probabilities
        ]


class MonotoneScheme(ThresholdScheme):
    """Arbitrary monotone cut points (ablation of the robustness claim).

    ``cuts`` are strictly increasing values in (0, 1); probability below
    ``cuts[0]`` selects level 0, between ``cuts[i-1]`` and ``cuts[i]``
    level ``i`` (clamped to the family's top level). Any choice of cuts
    preserves the "higher probability → higher accuracy" principle.
    """

    def __init__(self, cuts: list[float] | tuple[float, ...], name: str = "monotone"):
        cuts = tuple(float(c) for c in cuts)
        if any(not 0.0 < c < 1.0 for c in cuts):
            raise ValueError(f"cuts must lie strictly inside (0, 1): {cuts}")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError(f"cuts must be strictly increasing: {cuts}")
        self.cuts = cuts
        self.name = name

    def select_level(self, probability: float, n_variants: int) -> int | None:
        self._check(probability, n_variants)
        return min(bisect_right(self.cuts, probability), n_variants - 1)

    def select_levels(
        self, probabilities: Sequence[float], n_variants: int
    ) -> list[int | None]:
        self._check_all(probabilities, n_variants)
        cuts = self.cuts
        top = n_variants - 1
        return [
            level if (level := bisect_right(cuts, p)) < top else top
            for p in probabilities
        ]


_SCHEMES: dict[str, type[ThresholdScheme]] = {
    "T1": TechniqueT1,
    "T2": TechniqueT2,
}


def get_scheme(name: str | ThresholdScheme) -> ThresholdScheme:
    """Resolve a scheme by name ("T1"/"T2") or pass an instance through."""
    if isinstance(name, ThresholdScheme):
        return name
    try:
        return _SCHEMES[name]()
    except KeyError:
        raise KeyError(
            f"unknown threshold scheme {name!r}; known: {sorted(_SCHEMES)}"
        ) from None
