"""Figure 10 — probability-threshold techniques T1 vs T2.

Prints both schemes' improvement triplets over OpenWhisk. Shape to match
the paper: T1 and T2 produce comparable results — PULSE is robust to the
threshold scheme as long as higher probability maps to higher accuracy.
"""

from repro.experiments.reporting import format_table
from repro.experiments.sensitivity import figure10_threshold_schemes


def test_figure10_threshold_schemes(bench_config, bench_trace):
    points = figure10_threshold_schemes(bench_config, bench_trace)
    print()
    print(
        format_table(
            [
                {
                    "scheme": p.label,
                    "service_time_%": p.service_time,
                    "keepalive_cost_%": p.keepalive_cost,
                    "accuracy_%": p.accuracy,
                }
                for p in points
            ],
            title="Figure 10: % improvement over OpenWhisk, T1 vs T2",
        )
    )
    by = {p.label: p for p in points}
    for label in ("T1", "T2"):
        assert by[label].keepalive_cost > 0
        assert by[label].accuracy > -5.0
    # Comparable results: same sign, cost improvements within 25 points.
    assert abs(by["T1"].keepalive_cost - by["T2"].keepalive_cost) < 25.0
