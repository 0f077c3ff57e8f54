"""Figure 9 — decision overhead and accuracy: MILP vs PULSE.

Prints (a) the per-run overhead/service-time ratios of both optimizers
and (b) their accuracies. Shapes to match the paper: MILP's overhead
ratio sits roughly an order of magnitude above PULSE's, and MILP's
accuracy is no better (the joint optimization favours cheap variants).
"""

import numpy as np

from repro.experiments.overhead import figure9_overhead
from repro.experiments.reporting import format_table


def test_figure9_milp_vs_pulse(bench_config, bench_trace):
    res = figure9_overhead(bench_config, bench_trace)
    print()
    print(
        format_table(
            [
                {
                    "technique": "PULSE",
                    "median_overhead/service": float(
                        np.median(res.pulse_overhead_ratio)
                    ),
                    "accuracy_percent": res.pulse_accuracy,
                },
                {
                    "technique": "MILP",
                    "median_overhead/service": float(
                        np.median(res.milp_overhead_ratio)
                    ),
                    "accuracy_percent": res.milp_accuracy,
                },
            ],
            title="Figure 9: optimizer overhead and accuracy",
        )
    )
    print(f"  MILP / PULSE overhead factor: {res.overhead_factor:.1f}x")
    ratios = list(res.pulse_overhead_ratio) + list(res.milp_overhead_ratio)
    if min(ratios) > 0:
        from repro.utils.stats import ascii_histogram

        print("  distribution of overhead/service over runs (both policies):")
        print(ascii_histogram(ratios, bins=6, log_bins=True))
    assert res.overhead_factor > 2.0  # paper shows ~an order of magnitude
    assert res.milp_accuracy <= res.pulse_accuracy + 0.5
