"""Figure 12 — local window sizes (10/60/120 minutes).

Prints PULSE's improvement triplet over OpenWhisk at each local-window
size. Shape to match the paper: consistent improvements across the
spectrum of window sizes.
"""

from repro.experiments.reporting import format_table
from repro.experiments.sensitivity import figure12_local_windows


def test_figure12_local_window_sizes(bench_config, bench_trace):
    points = figure12_local_windows(bench_config, bench_trace)
    print()
    print(
        format_table(
            [
                {
                    "local_window": p.label,
                    "service_time_%": p.service_time,
                    "keepalive_cost_%": p.keepalive_cost,
                    "accuracy_%": p.accuracy,
                }
                for p in points
            ],
            title="Figure 12: % improvement over OpenWhisk across local windows",
        )
    )
    assert len(points) == 3
    for p in points:
        assert p.keepalive_cost > 0
        assert p.accuracy > -5.0
