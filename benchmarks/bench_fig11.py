"""Figure 11 — keep-alive memory thresholds M1/M2/M3 (5/10/15 %).

Prints PULSE's improvement triplet over OpenWhisk at each KM_T value.
Shape to match the paper: PULSE balances the three metrics at every
memory constraint — improvements are positive for cost at all
thresholds, with small accuracy dips.
"""

from repro.experiments.reporting import format_table
from repro.experiments.sensitivity import figure11_memory_thresholds


def test_figure11_memory_thresholds(bench_config, bench_trace):
    points = figure11_memory_thresholds(bench_config, bench_trace)
    print()
    print(
        format_table(
            [
                {
                    "KM_T": p.label,
                    "service_time_%": p.service_time,
                    "keepalive_cost_%": p.keepalive_cost,
                    "accuracy_%": p.accuracy,
                }
                for p in points
            ],
            title="Figure 11: % improvement over OpenWhisk across memory thresholds",
        )
    )
    assert len(points) == 3
    for p in points:
        assert p.keepalive_cost > 0
        assert p.accuracy > -5.0
