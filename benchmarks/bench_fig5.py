"""Figure 5 — accuracy vs keep-alive cost trade-off.

Prints the three scatter points (lowest-only, highest-only, PULSE).
Shape to match the paper: PULSE's cost sits near the lowest-quality
point while its accuracy stays near the highest-quality point.
"""

from repro.experiments.reporting import format_table
from repro.experiments.tradeoff import figure5_tradeoff


def test_figure5_cost_accuracy_tradeoff(bench_config, bench_trace):
    points = figure5_tradeoff(bench_config, bench_trace)
    print()
    print(
        format_table(
            [
                {
                    "policy": p.label,
                    "keepalive_cost_usd": p.keepalive_cost_usd,
                    "accuracy_percent": p.accuracy_percent,
                }
                for p in points
            ],
            title="Figure 5: accuracy vs keep-alive cost",
        )
    )
    by = {p.label: p for p in points}
    low, high, pulse = by["lowest quality"], by["highest quality"], by["PULSE"]
    assert low.keepalive_cost_usd < high.keepalive_cost_usd
    assert low.accuracy_percent < high.accuracy_percent
    # PULSE: cost meaningfully below highest-only ...
    assert pulse.keepalive_cost_usd < 0.85 * high.keepalive_cost_usd
    # ... accuracy meaningfully above lowest-only, approaching highest.
    acc_span = high.accuracy_percent - low.accuracy_percent
    assert pulse.accuracy_percent > low.accuracy_percent + 0.4 * acc_span
