"""Figure 4 — individual-function optimization lowers memory; peaks persist.

Prints the keep-alive memory series of (a) the fixed policy and (b)
PULSE's function-centric stage alone. Shapes to match the paper: the
individual stage reduces average memory but its peak-to-average ratio
stays elevated — motivating the cross-function stage.
"""

from repro.experiments.memory import figure4_and_7_memory
from repro.experiments.reporting import format_series


def test_figure4_individual_optimization_memory(bench_config):
    res = figure4_and_7_memory(bench_config)
    ow, ind = res["openwhisk"], res["individual_only"]
    print()
    print("Figure 4: keep-alive memory (MB) over time")
    print(" ", format_series(ow.memory_series_mb, label="(a) OpenWhisk fixed  "))
    print(" ", format_series(ind.memory_series_mb, label="(b) individual-only  "))
    print(
        f"  avg: {ow.mean_memory_mb:.0f} -> {ind.mean_memory_mb:.0f} MB; "
        f"peak-to-avg: {ow.peakiness:.2f} -> {ind.peakiness:.2f}"
    )
    # Individual optimization reduces memory ...
    assert ind.mean_memory_mb < ow.mean_memory_mb
    # ... but does not flatten the spikes (peaks persist).
    assert ind.peakiness >= 0.9 * ow.peakiness
