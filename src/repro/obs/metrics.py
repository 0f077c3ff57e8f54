"""A small metrics registry: counters, gauges and histograms with labels.

Prometheus-shaped but dependency-free and picklable (plain dicts all the
way down), because sweep workers ship their registries back to the parent
process inside ``RunResult`` and the parent merges them
(:func:`repro.obs.export.merge_sessions`).

Hot-path discipline: the engine resolves a metric once before its loop
(``registry.counter("cold_starts_total")``) and, where a label is fixed
per iteration slot, pre-binds it (``counter.labels(function=3)``) so the
per-event cost is one dict store — no string formatting, no kwargs
plumbing, no allocation beyond the first touch of a series.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["Counter", "Gauge", "Histogram", "HistogramSummary", "MetricsRegistry"]

#: A label set, canonicalized to a sorted tuple of (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]

_NO_LABELS: LabelKey = ()


def _label_key(labels: dict[str, object]) -> LabelKey:
    if not labels:
        return _NO_LABELS
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def flat_name(name: str, key: LabelKey) -> str:
    """``name`` or ``name{k=v,k2=v2}`` — the flat-dict series identifier."""
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared shell: a name, a help string, and labeled series."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help = help
        self.series: dict[LabelKey, object] = {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, series={len(self.series)})"


class _BoundCounter:
    """A counter pre-resolved to one label set (hot-path handle)."""

    __slots__ = ("_series", "_key")

    def __init__(self, series: dict, key: LabelKey):
        self._series = series
        self._key = key

    def inc(self, value: float = 1.0) -> None:
        self._series[self._key] = self._series.get(self._key, 0.0) + value


class Counter(_Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({value})")
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0.0) + value

    def labels(self, **labels: object) -> _BoundCounter:
        return _BoundCounter(self.series, _label_key(labels))

    def value(self, **labels: object) -> float:
        return float(self.series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label set."""
        return float(sum(self.series.values()))


class Gauge(_Metric):
    """A last-write-wins value per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self.series[_label_key(labels)] = float(value)

    def value(self, **labels: object) -> float:
        return float(self.series.get(_label_key(labels), 0.0))


class HistogramSummary:
    """Streaming summary of one histogram series: count/sum/min/max.

    Bucketless on purpose — the consumers (run report, sweep merge) want
    the moments, and a fixed bucket layout would have to guess scales for
    quantities as different as MB-minutes and span seconds.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "HistogramSummary") -> None:
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def as_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0.0, "sum": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistogramSummary):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return (
            f"HistogramSummary(count={self.count}, sum={self.total:.6g}, "
            f"min={self.min:.6g}, max={self.max:.6g})"
        )

    # __slots__ classes need explicit pickle support.
    def __getstate__(self):
        return (self.count, self.total, self.min, self.max)

    def __setstate__(self, state):
        self.count, self.total, self.min, self.max = state


class Histogram(_Metric):
    """A :class:`HistogramSummary` per label set."""

    kind = "histogram"

    def _summary(self, labels: dict[str, object]) -> HistogramSummary:
        key = _label_key(labels)
        s = self.series.get(key)
        if s is None:
            s = self.series[key] = HistogramSummary()
        return s

    def observe(self, value: float, **labels: object) -> None:
        self._summary(labels).observe(value)

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        """Bulk observation (the fleet engine's per-run memory series)."""
        s = self._summary(labels)
        for v in values:
            s.observe(v)

    def summary(self, **labels: object) -> HistogramSummary:
        return self._summary(labels)


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create home for every metric of one run (or merged sweep)."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls: type, name: str, help: str) -> _Metric:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls(name, help)
        elif type(m) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}, "
                f"not {cls.kind}"
            )
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)  # type: ignore[return-value]

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        """Total number of live series across all metrics."""
        return sum(len(m.series) for m in self._metrics.values())

    def __iter__(self):
        return iter(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def as_flat_dict(self) -> dict[str, float]:
        """Every series as ``name{labels}`` → value.

        Histogram series expand to ``_count`` / ``_sum`` / ``_min`` /
        ``_max`` suffixed entries — the JSONL metrics record and the run
        report's metrics table both use this representation.
        """
        out: dict[str, float] = {}
        for m in self._metrics.values():
            for key, value in sorted(m.series.items()):
                if isinstance(value, HistogramSummary):
                    for suffix, v in value.as_dict().items():
                        out[flat_name(f"{m.name}_{suffix}", key)] = v
                else:
                    out[flat_name(m.name, key)] = float(value)  # type: ignore[arg-type]
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters and histograms accumulate,
        gauges take the other registry's value (last write wins)."""
        for om in other:
            mine = self._get(type(om), om.name, om.help)
            for key, value in om.series.items():
                if isinstance(value, HistogramSummary):
                    s = mine.series.get(key)
                    if s is None:
                        s = mine.series[key] = HistogramSummary()
                    s.merge(value)
                elif om.kind == "gauge":
                    mine.series[key] = float(value)  # type: ignore[arg-type]
                else:
                    mine.series[key] = mine.series.get(key, 0.0) + float(value)  # type: ignore[arg-type]
