"""Figure 2 — the same function's inter-arrival pattern drifts over time.

Prints one function's window histogram over the first/middle/last period
of the trace. Shape to match the paper: the three panels differ — the
regime the function follows changes across the trace.
"""

from repro.experiments.motivation import figure2_drift, histogram_divergence
from repro.experiments.reporting import format_series


def test_figure2_interarrival_drift(bench_trace):
    panels = figure2_drift(bench_trace)
    print()
    print("Figure 2: one function's histogram across trace periods")
    for label, h in panels.items():
        print(" ", format_series(h, label=f"{label:16s}"))
    assert len(panels) == 3
    assert histogram_divergence(list(panels.values())) > 30.0
