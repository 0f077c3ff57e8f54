"""Figure 6 — PULSE vs OpenWhisk: headline improvements and cost error.

Prints (a) the percentage improvements over the fixed policy on the
three headline metrics and (b) sparklines of the per-minute keep-alive
cost error vs the ideal. Shapes to match the paper: keep-alive cost
improves by tens of percent (paper: 39.5 %), service time by high single
digits (paper: 8.8 %), accuracy dips under a few percent (paper: 0.6 %),
and OpenWhisk's cost error sits far above PULSE's.
"""

from repro.experiments.headline import figure6_headline
from repro.experiments.reporting import format_bar_chart, format_series
from repro.utils.stats import summarize


def test_figure6_headline_vs_openwhisk(bench_config, bench_trace):
    res = figure6_headline(bench_config, bench_trace)
    print()
    print("Figure 6(a): % improvement of PULSE over OpenWhisk")
    print(format_bar_chart(res.improvements, unit="%"))
    print("Figure 6(b): per-minute keep-alive cost error vs ideal (%)")
    print(" ", format_series(res.openwhisk_cost_error, label="OpenWhisk"))
    print(" ", format_series(res.pulse_cost_error, label="PULSE    "))
    deltas = summarize(
        ow.keepalive_cost_usd - pu.keepalive_cost_usd
        for ow, pu in zip(res.openwhisk_runs, res.pulse_runs)
    )
    print(f"  paired per-run cost saving: {deltas}")
    imp = res.improvements
    assert 10.0 < imp["keepalive_cost"] < 80.0  # paper: 39.5 %
    assert 0.0 < imp["service_time"] < 30.0  # paper: 8.8 %
    assert -5.0 < imp["accuracy"] <= 0.5  # paper: -0.6 %
    assert res.openwhisk_cost_error.mean() > res.pulse_cost_error.mean()
