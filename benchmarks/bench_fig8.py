"""Figure 8 — integrating PULSE into Wild and IceBreaker.

Prints the percent change in accuracy / keep-alive cost / service time
of <technique>+PULSE over <technique> alone. Shapes to match the paper:
both integrations slash keep-alive cost (Wild's dramatically — the paper
reports −99 % — because PULSE cuts Wild's long 99th-percentile
keep-alive tails), and accuracy dips well under a percent of the
variant-unaware baselines... at most a few percent here.
"""

from repro.experiments.integration import figure8_integration
from repro.experiments.reporting import format_bar_chart


def test_figure8_integration(bench_config, bench_trace):
    results = figure8_integration(bench_config, bench_trace)
    print()
    for r in results:
        print(f"Figure 8: {r.technique}+PULSE vs {r.technique} (% improvement)")
        print(
            format_bar_chart(
                {
                    "accuracy": r.accuracy,
                    "keepalive_cost": r.keepalive_cost,
                    "service_time": r.service_time,
                },
                unit="%",
            )
        )
        print()
    by = {r.technique: r for r in results}
    # Both integrations cut keep-alive cost; Wild's cut is the larger one
    # (its long keep-alive tails are what PULSE trims away).
    assert by["Wild"].keepalive_cost > 30.0
    assert by["IceBreaker"].keepalive_cost > 5.0
    assert by["Wild"].keepalive_cost > by["IceBreaker"].keepalive_cost
    # Accuracy stays close to the variant-unaware baselines.
    assert by["Wild"].accuracy > -5.0
    assert by["IceBreaker"].accuracy > -5.0
