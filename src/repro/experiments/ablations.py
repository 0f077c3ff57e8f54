"""Design-choice ablations (DESIGN.md §8).

Three studies beyond the paper's figures, each isolating one design
decision DESIGN.md calls out:

- :func:`utility_component_ablation` — drop each Eq. 2 term (Ai / Pr /
  Ip) from the downgrade utility. The priority term's job is fairness:
  without it, the same (low-Ai) models absorb every downgrade.
- :func:`peak_detector_ablation` — Algorithm 1's prior-memory rules vs
  the naive previous-minute rule, on a trace dominated by day-phase
  (nocturnal/diurnal) functions whose resumptions the naive rule
  misclassifies as peaks.
- :func:`scalability_study` — per-decision overhead as the number of
  concurrent functions grows (§V: "PULSE's overhead remains minimal even
  when handling a large number of concurrent functions").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro.core.pulse import PulseConfig, PulsePolicy
from repro.core.utility import UtilityWeights
from repro.experiments.assignments import sample_assignment
from repro.experiments.runner import ExperimentConfig, default_trace, run_policies
from repro.runtime.metrics import aggregate_results
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import Trace
from repro.traces.synthetic import (
    FunctionArchetype,
    SyntheticTraceConfig,
    generate_trace,
)

__all__ = [
    "AblationRow",
    "peak_detector_ablation",
    "scalability_study",
    "utility_component_ablation",
]


@dataclass(frozen=True)
class AblationRow:
    """One configuration's outcome."""

    label: str
    keepalive_cost_usd: float
    service_time_s: float
    accuracy_percent: float
    warm_fraction: float
    extra: dict[str, float]


def _row(label: str, agg: dict[str, float], **extra: float) -> AblationRow:
    return AblationRow(
        label=label,
        keepalive_cost_usd=agg["keepalive_cost_usd"],
        service_time_s=agg["service_time_s"],
        accuracy_percent=agg["accuracy_percent"],
        warm_fraction=agg["warm_fraction"],
        extra=dict(extra),
    )


def utility_component_ablation(
    config: ExperimentConfig | None = None,
    trace: Trace | None = None,
) -> list[AblationRow]:
    """PULSE with each Eq. 2 component removed, plus full PULSE.

    Also reports downgrade-concentration: the fraction of all downgrades
    absorbed by the single most-downgraded function (higher = less fair;
    the priority term exists to push this down).
    """
    config = config or ExperimentConfig()
    trace = trace if trace is not None else default_trace(config)
    variants = {
        "full (Ai+Pr+Ip)": UtilityWeights(),
        "no Ai": UtilityWeights(accuracy_improvement=0.0),
        "no Pr": UtilityWeights(priority=0.0),
        "no Ip": UtilityWeights(invocation_probability=0.0),
    }
    rows: list[AblationRow] = []
    for label, weights in variants.items():
        factory = partial(PulsePolicy, PulseConfig(utility_weights=weights))
        results = run_policies(trace, {label: factory}, config)
        agg = aggregate_results(results[label])
        # Measure concentration on one representative run.
        policy = factory()
        Simulation(
            trace,
            sample_assignment(trace.n_functions, seed=config.seed),
            policy,
            config.sim,
        ).run()
        counts = policy.priority_counts
        total = counts.sum()
        concentration = float(counts.max() / total) if total else 0.0
        rows.append(_row(label, agg, downgrade_concentration=concentration))
    return rows


def dayphase_trace(horizon_minutes: int, seed: int = 2024) -> Trace:
    """A trace dominated by nocturnal/diurnal functions (long daily
    inactivity), the stress case for Algorithm 1's prior rules."""
    mix = (
        FunctionArchetype("nocturnal", {"period": 5}),
        FunctionArchetype("nocturnal", {"period": 8}),
        FunctionArchetype("nocturnal", {"rate": 0.3}),
        FunctionArchetype("diurnal", {"period": 4}),
        FunctionArchetype("diurnal", {"period": 9}),
        FunctionArchetype("diurnal", {"rate": 0.3}),
        FunctionArchetype("periodic", {"period": 6, "jitter": 0}),
        FunctionArchetype("sparse", {"mean_gap": 300.0}),
    )
    return generate_trace(
        SyntheticTraceConfig(
            horizon_minutes=horizon_minutes, functions=mix, n_peaks=3, seed=seed
        )
    )


def peak_detector_ablation(
    config: ExperimentConfig | None = None,
) -> list[AblationRow]:
    """Algorithm 1 vs the naive previous-minute prior, on the day-phase
    trace. The naive rule flags every morning/evening resumption as a
    peak, shedding droppable keep-alives and hurting warm starts."""
    config = config or ExperimentConfig()
    trace = dayphase_trace(config.horizon_minutes, seed=config.seed)
    rows = []
    for label, rule in (
        ("Algorithm 1", "algorithm1"),
        ("previous-minute", "previous_minute"),
    ):
        factory = partial(PulsePolicy, PulseConfig(prior_rule=rule))
        results = run_policies(trace, {label: factory}, config)
        agg = aggregate_results(results[label])
        policy = factory()
        Simulation(
            trace,
            sample_assignment(trace.n_functions, seed=config.seed),
            policy,
            config.sim,
        ).run()
        rows.append(
            _row(
                label,
                agg,
                peak_minutes=float(policy.n_peak_minutes),
                downgrades=float(policy.n_downgrades),
            )
        )
    return rows


def scalability_study(
    function_counts: tuple[int, ...] = (12, 24, 48, 96),
    horizon_minutes: int = 720,
    seed: int = 2024,
) -> list[AblationRow]:
    """PULSE per-decision overhead as concurrency grows.

    Builds traces with N functions (cycling the default archetype mix)
    and reports mean decision overhead; the claim to verify is that
    overhead per decision stays roughly flat (the greedy loop touches
    only the kept-alive set).
    """
    from repro.traces.synthetic import DEFAULT_FUNCTION_MIX

    rows = []
    for n in function_counts:
        mix = tuple(DEFAULT_FUNCTION_MIX[i % len(DEFAULT_FUNCTION_MIX)] for i in range(n))
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_minutes=horizon_minutes, functions=mix, seed=seed
            )
        )
        assignment = sample_assignment(n, seed=seed)
        sim = SimulationConfig(measure_overhead=True, record_series=False)
        result = Simulation(trace, assignment, PulsePolicy(), sim).run()
        rows.append(
            AblationRow(
                label=f"{n} functions",
                keepalive_cost_usd=result.keepalive_cost_usd,
                service_time_s=result.total_service_time_s,
                accuracy_percent=result.mean_accuracy,
                warm_fraction=result.warm_fraction,
                extra={
                    "overhead_per_decision_us": result.overhead_per_decision_s * 1e6,
                    "overhead_over_service": result.overhead_over_service_time,
                    "n_decisions": float(result.n_policy_decisions),
                },
            )
        )
    return rows
