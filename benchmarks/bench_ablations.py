"""Ablations beyond the paper's figures (DESIGN.md §7).

- keep-alive duration sweep (§V's "flexible durations" claim): PULSE's
  improvements persist at 5/10/15-minute windows;
- probability-mode ablation: how the per-offset probability shape
  (exact / cumulative / survival / hazard) moves the cost/accuracy
  balance — all modes respect the "higher probability -> higher
  accuracy" principle and all beat OpenWhisk on cost.
"""

from functools import partial

from repro.baselines.openwhisk import OpenWhiskPolicy
from repro.core.pulse import PulseConfig, PulsePolicy
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_policies
from repro.experiments.sensitivity import keep_alive_duration_sweep
from repro.runtime.metrics import aggregate_results, percent_improvement


def test_keep_alive_duration_sweep(bench_config, bench_trace):
    sweep = keep_alive_duration_sweep(bench_config, bench_trace)
    print()
    rows = []
    for duration, points in sweep.items():
        p = points[0]
        rows.append(
            {
                "window_min": duration,
                "service_time_%": p.service_time,
                "keepalive_cost_%": p.keepalive_cost,
                "accuracy_%": p.accuracy,
            }
        )
    print(
        format_table(
            rows, title="Ablation: PULSE vs OpenWhisk across keep-alive durations"
        )
    )
    for row in rows:
        assert row["keepalive_cost_%"] > 0


def test_probability_mode_ablation(bench_config, bench_trace):
    modes = ["exact", "cumulative", "survival", "hazard"]
    policies = {"OpenWhisk": OpenWhiskPolicy}
    policies.update(
        {
            mode: partial(PulsePolicy, PulseConfig(probability_mode=mode))
            for mode in modes
        }
    )
    results = run_policies(bench_trace, policies, bench_config)
    base = aggregate_results(results["OpenWhisk"])
    rows = []
    for mode in modes:
        agg = aggregate_results(results[mode])
        rows.append(
            {
                "mode": mode,
                "keepalive_cost_%": percent_improvement(
                    base["keepalive_cost_usd"],
                    agg["keepalive_cost_usd"],
                    higher_is_better=False,
                ),
                "service_time_%": percent_improvement(
                    base["service_time_s"],
                    agg["service_time_s"],
                    higher_is_better=False,
                ),
                "accuracy_%": percent_improvement(
                    base["accuracy_percent"],
                    agg["accuracy_percent"],
                    higher_is_better=True,
                ),
            }
        )
    print()
    print(format_table(rows, title="Ablation: per-offset probability shape"))
    for row in rows:
        assert row["keepalive_cost_%"] > 0
        assert row["accuracy_%"] > -6.0
