"""Run metrics: the paper's three headline quantities plus diagnostics.

- **service time** — cumulative seconds over all invocations (cold-start
  time + execution time; a warm start has zero cold-start component);
- **keep-alive cost** — USD the provider spends holding containers warm;
- **accuracy** — the mean accuracy delivered per invocation.

:class:`RunResult` also carries per-minute memory series (for Figures 4,
6b and 7) and policy-decision overhead (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

import numpy as np

from repro.obs.session import ObsSession
from repro.runtime.costmodel import CostModel

__all__ = ["RunResult", "aggregate_results", "percent_improvement"]


@dataclass(frozen=True)
class RunResult:
    """Everything measured over one simulated run of one policy."""

    policy_name: str
    n_invocations: int
    n_warm: int
    n_cold: int
    total_service_time_s: float
    keepalive_cost_usd: float
    mean_accuracy: float  # percent
    policy_overhead_s: float
    n_policy_decisions: int
    memory_series_mb: np.ndarray | None = None
    ideal_memory_series_mb: np.ndarray | None = None
    #: Random platform downgrades forced by a memory capacity cap (0 when
    #: uncapped or when the policy kept memory within capacity).
    n_forced_downgrades: int = 0
    #: Resilience counters (all 0 unless the run injected faults or ran a
    #: crash-isolated policy — see :mod:`repro.faults`):
    #: failed container-spawn attempts, retries consumed by them,
    #: policy exceptions caught by the isolation wrapper, and
    #: function-minutes spent degraded to the fixed fallback.
    n_spawn_failures: int = 0
    n_retries: int = 0
    n_policy_faults: int = 0
    n_degraded_minutes: int = 0
    #: Checkpoints captured during the run (0 unless ``Simulation.run``
    #: was given a :class:`~repro.runtime.checkpoint.CheckpointConfig`).
    #: Deliberately absent from :meth:`summary`: checkpointing is a
    #: harness concern, and a run's headline artifact must not depend on
    #: whether (or how often) it was checkpointed.
    n_checkpoints: int = 0
    #: Engine wall-clock seconds for this run (set by ``Simulation.run``;
    #: excluded from engine-equivalence comparisons — it measures the
    #: machine, not the simulated system).
    wall_clock_s: float = 0.0
    #: The run's observability session (metrics registry, span timings,
    #: decision records) when ``SimulationConfig.observe`` was set;
    #: ``None`` for unobserved runs. Never part of headline metrics.
    obs: ObsSession | None = None

    def __post_init__(self) -> None:
        if self.n_warm + self.n_cold != self.n_invocations:
            raise ValueError(
                f"warm ({self.n_warm}) + cold ({self.n_cold}) != "
                f"invocations ({self.n_invocations})"
            )

    @property
    def warm_fraction(self) -> float:
        """Fraction of invocations served warm."""
        if self.n_invocations == 0:
            return 0.0
        return self.n_warm / self.n_invocations

    @property
    def overhead_per_decision_s(self) -> float:
        """Mean policy overhead per decision (Figure 9's x-axis numerator)."""
        if self.n_policy_decisions == 0:
            return 0.0
        return self.policy_overhead_s / self.n_policy_decisions

    @property
    def overhead_over_service_time(self) -> float:
        """Figure 9(a)'s metric: total decision overhead / total service time."""
        if self.total_service_time_s == 0:
            return 0.0
        return self.policy_overhead_s / self.total_service_time_s

    def cost_error_series(self, cost_model: CostModel) -> np.ndarray:
        """Per-minute keep-alive cost deviation from ideal, in percent.

        Figure 6(b): the ideal keeps a container alive exactly during
        invocation minutes. Minutes where both actual and ideal memory are
        zero contribute 0 %; minutes with actual spend but zero ideal are
        capped at +200 % (the plot's visual ceiling) to keep the series
        finite.
        """
        if self.memory_series_mb is None or self.ideal_memory_series_mb is None:
            raise ValueError("run was executed without series recording")
        actual = cost_model.cost_series(self.memory_series_mb)
        ideal = cost_model.cost_series(self.ideal_memory_series_mb)
        err = np.zeros_like(actual)
        nonzero = ideal > 0
        err[nonzero] = 100.0 * (actual[nonzero] - ideal[nonzero]) / ideal[nonzero]
        waste = (~nonzero) & (actual > 0)
        err[waste] = 200.0
        return np.clip(err, -100.0, 200.0)

    def summary(self) -> dict[str, float | str]:
        """Flat dict of the headline metrics (for tables and reports)."""
        return {
            "policy": self.policy_name,
            "invocations": float(self.n_invocations),
            "warm_fraction": self.warm_fraction,
            "service_time_s": self.total_service_time_s,
            "keepalive_cost_usd": self.keepalive_cost_usd,
            "accuracy_percent": self.mean_accuracy,
            "overhead_s": self.policy_overhead_s,
            "n_forced_downgrades": float(self.n_forced_downgrades),
            "n_spawn_failures": float(self.n_spawn_failures),
            "n_retries": float(self.n_retries),
            "n_policy_faults": float(self.n_policy_faults),
            "n_degraded_minutes": float(self.n_degraded_minutes),
            "wall_clock_s": self.wall_clock_s,
        }

    def flat_metrics(self) -> dict[str, float]:
        """The observability registry as a flat ``{series: value}`` dict
        (empty when the run was unobserved or metrics were off)."""
        if self.obs is None or not self.obs.metrics_enabled:
            return {}
        return self.obs.metrics.as_flat_dict()


def aggregate_results(results: list[RunResult]) -> dict[str, float]:
    """Mean headline metrics across runs (the paper averages 1000 runs)."""
    if not results:
        raise ValueError("need at least one RunResult")
    return {
        "service_time_s": fmean(r.total_service_time_s for r in results),
        "keepalive_cost_usd": fmean(r.keepalive_cost_usd for r in results),
        "accuracy_percent": fmean(r.mean_accuracy for r in results),
        "warm_fraction": fmean(r.warm_fraction for r in results),
        "overhead_s": fmean(r.policy_overhead_s for r in results),
        "n_warm": fmean(r.n_warm for r in results),
        "n_cold": fmean(r.n_cold for r in results),
        "n_forced_downgrades": fmean(r.n_forced_downgrades for r in results),
        "n_spawn_failures": fmean(r.n_spawn_failures for r in results),
        "n_retries": fmean(r.n_retries for r in results),
        "n_policy_faults": fmean(r.n_policy_faults for r in results),
        "n_degraded_minutes": fmean(r.n_degraded_minutes for r in results),
        "wall_clock_s": fmean(r.wall_clock_s for r in results),
        "n_runs": float(len(results)),
    }


def percent_improvement(
    baseline: float, value: float, *, higher_is_better: bool
) -> float:
    """Improvement of ``value`` over ``baseline`` in percent.

    Positive means *better*: for cost/time metrics (lower is better) this
    is the percentage reduction; for accuracy it is the percentage gain.
    Matches the y-axes of Figures 6(a), 8 and 10–12.
    """
    if baseline == 0:
        raise ValueError("baseline metric is zero; improvement undefined")
    if higher_is_better:
        return 100.0 * (value - baseline) / abs(baseline)
    return 100.0 * (baseline - value) / abs(baseline)
