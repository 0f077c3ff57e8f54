"""Figure 7 — full PULSE smooths the memory peaks.

Prints the fixed policy's and full PULSE's memory series with their
delivered accuracies. Shapes to match the paper: PULSE reduces average
keep-alive memory, removes the abrupt spikes (lower peak-to-average
ratio than the fixed policy AND than the individual-only stage), and
loses only a fraction of a percent of accuracy.
"""

from repro.experiments.memory import figure4_and_7_memory
from repro.experiments.reporting import format_series


def test_figure7_pulse_memory_smoothing(bench_config):
    res = figure4_and_7_memory(bench_config)
    ow, ind, pulse = res["openwhisk"], res["individual_only"], res["pulse"]
    print()
    print("Figure 7: keep-alive memory (MB) over time")
    print(
        " ",
        format_series(ow.memory_series_mb, label="(a) OpenWhisk fixed"),
        f" accuracy={ow.accuracy_percent:.2f}%",
    )
    print(
        " ",
        format_series(pulse.memory_series_mb, label="(b) PULSE          "),
        f" accuracy={pulse.accuracy_percent:.2f}%",
    )
    print(
        f"  avg: {ow.mean_memory_mb:.0f} -> {pulse.mean_memory_mb:.0f} MB; "
        f"max: {ow.max_memory_mb:.0f} -> {pulse.max_memory_mb:.0f} MB"
    )
    assert pulse.mean_memory_mb < ow.mean_memory_mb
    assert pulse.max_memory_mb < ow.max_memory_mb
    # The global stage flattens what the individual stage left spiky.
    assert pulse.max_memory_mb <= ind.max_memory_mb
    # Accuracy within a few percent of the fixed policy's.
    assert ow.accuracy_percent - pulse.accuracy_percent < 4.0
