"""Model variants and families.

A *family* is one ML model (BERT, YOLO, GPT, ResNet, DenseNet); its
*variants* are quality/size points of the same model, ordered by accuracy.
PULSE's two optimizers only ever move along this ordering: the
function-centric optimizer picks a variant per future minute, and the
global optimizer "downgrades by one variant" during memory peaks.

All quantities use the paper's units:

- ``warm_service_time_s`` / ``cold_service_time_s`` — seconds per invocation
  (cold includes container creation + model load + execution);
- ``keepalive_cost_cents_per_hour`` — provider cost of keeping one warm
  container of this variant alive for an hour (Table I column 3);
- ``accuracy`` — percent in [0, 100];
- ``memory_mb`` — container footprint counted against keep-alive memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import check_non_negative, check_positive

__all__ = ["ModelVariant", "ModelFamily"]


@dataclass(frozen=True, order=False)
class ModelVariant:
    """One quality point of a model family.

    ``level`` is the index within the family's accuracy ordering:
    0 is the lowest-accuracy (cheapest) variant.
    """

    family: str
    name: str
    level: int
    accuracy: float
    warm_service_time_s: float
    cold_service_time_s: float
    keepalive_cost_cents_per_hour: float
    memory_mb: float

    def __post_init__(self) -> None:
        if not self.family:
            raise ValueError("family must be a non-empty string")
        if not self.name:
            raise ValueError("name must be a non-empty string")
        check_non_negative("level", self.level)
        if not (0.0 <= self.accuracy <= 100.0):
            raise ValueError(f"accuracy must be in [0, 100], got {self.accuracy!r}")
        check_positive("warm_service_time_s", self.warm_service_time_s)
        check_positive("cold_service_time_s", self.cold_service_time_s)
        if self.cold_service_time_s < self.warm_service_time_s:
            raise ValueError(
                "cold_service_time_s must be >= warm_service_time_s "
                f"({self.cold_service_time_s} < {self.warm_service_time_s})"
            )
        check_positive(
            "keepalive_cost_cents_per_hour", self.keepalive_cost_cents_per_hour
        )
        check_positive("memory_mb", self.memory_mb)

    @property
    def accuracy_fraction(self) -> float:
        """Accuracy as a value in [0, 1] (used by the utility function)."""
        return self.accuracy / 100.0

    @property
    def cold_start_penalty_s(self) -> float:
        """Extra seconds a cold start adds over a warm invocation."""
        return self.cold_service_time_s - self.warm_service_time_s

    def __repr__(self) -> str:  # compact, for logs and test output
        return (
            f"ModelVariant({self.name!r}, lvl={self.level}, "
            f"acc={self.accuracy:.2f}%, mem={self.memory_mb:.0f}MB)"
        )


@dataclass(frozen=True)
class ModelFamily:
    """An ordered collection of variants of the same model.

    Variants are stored lowest-accuracy first; ``levels`` are assigned by
    the constructor and must match the accuracy ordering.
    """

    name: str
    task: str
    dataset: str
    variants: tuple[ModelVariant, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError(f"family {self.name!r} must have at least one variant")
        accs = [v.accuracy for v in self.variants]
        if accs != sorted(accs):
            raise ValueError(
                f"family {self.name!r}: variants must be ordered by increasing accuracy"
            )
        for i, v in enumerate(self.variants):
            if v.level != i:
                raise ValueError(
                    f"family {self.name!r}: variant {v.name!r} has level {v.level}, "
                    f"expected {i}"
                )
            if v.family != self.name:
                raise ValueError(
                    f"variant {v.name!r} belongs to family {v.family!r}, "
                    f"not {self.name!r}"
                )

    def __len__(self) -> int:
        return len(self.variants)

    def __iter__(self):
        return iter(self.variants)

    @property
    def n_variants(self) -> int:
        """Number of quality points (the paper's *N*)."""
        return len(self.variants)

    @property
    def lowest(self) -> ModelVariant:
        """The cheapest / least accurate variant."""
        return self.variants[0]

    @property
    def highest(self) -> ModelVariant:
        """The most accurate (most expensive) variant."""
        return self.variants[-1]

    def variant(self, level: int) -> ModelVariant:
        """Return the variant at ``level`` (0 = lowest accuracy)."""
        if not 0 <= level < len(self.variants):
            raise IndexError(
                f"family {self.name!r} has levels 0..{len(self.variants) - 1}, "
                f"got {level}"
            )
        return self.variants[level]

    def downgrade(self, variant: ModelVariant) -> ModelVariant | None:
        """Return the next-lower variant, or ``None`` when ``variant`` is
        already the lowest (the paper then drops the keep-alive entirely)."""
        self._check_member(variant)
        if variant.level == 0:
            return None
        return self.variants[variant.level - 1]

    def upgrade(self, variant: ModelVariant) -> ModelVariant | None:
        """Return the next-higher variant, or ``None`` at the top."""
        self._check_member(variant)
        if variant.level == len(self.variants) - 1:
            return None
        return self.variants[variant.level + 1]

    def accuracy_improvement(self, variant: ModelVariant) -> float:
        """The paper's *Ai* term, in [0, 1].

        Accuracy gained by keeping ``variant`` alive rather than the
        next-lower variant; for the lowest variant (no lower option) it is
        that variant's accuracy in decimal form.
        """
        self._check_member(variant)
        lower = self.downgrade(variant)
        if lower is None:
            return variant.accuracy_fraction
        return (variant.accuracy - lower.accuracy) / 100.0

    def _check_member(self, variant: ModelVariant) -> None:
        variants = self.variants
        level = variant.level
        if 0 <= level < len(variants) and variants[level] is variant:
            return  # the registered object itself: a member by construction
        if variant.family != self.name:
            raise ValueError(
                f"variant {variant.name!r} is not a member of family {self.name!r}"
            )
        if not (
            0 <= variant.level < len(self.variants)
            and self.variants[variant.level] == variant
        ):
            raise ValueError(
                f"variant {variant.name!r} does not match the registered "
                f"variant at level {variant.level} of family {self.name!r}"
            )
