"""Figure 1 — diverse inter-arrival patterns across functions.

Prints five functions' within-window inter-arrival histograms
(percentage of invocations per minute 1..10 after an invocation). Shape
to match the paper: the five panels have visibly different shapes
(front-loaded, uniform, late, bimodal, periodic spike).
"""

from repro.experiments.motivation import figure1_histograms, histogram_divergence
from repro.experiments.reporting import format_series


def test_figure1_interarrival_histograms(bench_trace):
    hists = figure1_histograms(bench_trace)
    print()
    print("Figure 1: % of invocations per minute of the 10-minute window")
    for name, h in hists.items():
        print(" ", format_series(h, label=f"{name:24s}"))
    assert len(hists) == 5
    # The shapes must be clearly diverse (pairwise L1 over percentages).
    assert histogram_divergence(list(hists.values())) > 100.0
