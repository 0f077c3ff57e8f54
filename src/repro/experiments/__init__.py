"""Per-table / per-figure reproduction harness.

One module per paper element (see DESIGN.md §4 for the experiment
index). All experiments share :mod:`repro.experiments.runner`'s
orchestration: a trace, N model-to-function assignments sampled per run
(the paper's 1000 runs use a different assignment each), one simulation
per (policy, assignment), aggregated with
:func:`repro.runtime.metrics.aggregate_results`.

Benches (``benchmarks/``) call these functions at reduced scale; the
functions themselves accept the paper-scale parameters.

The package's names load lazily: a submodule is imported when one of its
names is first read, so ``repro.experiments.assignments`` (which every
serve session imports) does not pull in the experiments, and scipy with
them.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "generate_report": "report",
    "memory_capacity_study": "capacity",
    "ResiliencePoint": "resilience",
    "resilience_sweep": "resilience",
    "paired_deltas": "variance",
    "pareto_frontier": "pareto",
    "pulse_configuration_sweep": "pareto",
    "variance_report": "variance",
    "peak_detector_ablation": "ablations",
    "scalability_study": "ablations",
    "utility_component_ablation": "ablations",
    "ExperimentConfig": "runner",
    "PeakStrategyRow": "peaks",
    "default_trace": "runner",
    "figure1_histograms": "motivation",
    "figure2_drift": "motivation",
    "figure4_and_7_memory": "memory",
    "figure5_tradeoff": "tradeoff",
    "figure6_headline": "headline",
    "figure8_integration": "integration",
    "figure9_overhead": "overhead",
    "figure10_threshold_schemes": "sensitivity",
    "figure11_memory_thresholds": "sensitivity",
    "figure12_local_windows": "sensitivity",
    "keep_alive_duration_sweep": "sensitivity",
    "run_policies": "runner",
    "run_policy": "runner",
    "sample_assignment": "assignments",
    "sample_assignments": "assignments",
    "table1_characterization": "table1",
    "tables2_3_peak_strategies": "peaks",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
