"""Extension: the cost-accuracy Pareto frontier of PULSE configurations.

Prints every swept configuration's (cost, accuracy) and marks the
Pareto-optimal set. Shape: the fixed anchors bracket the frontier
(all-lowest is the cheapest point, all-highest the most accurate), and
at least one PULSE configuration is Pareto-optimal strictly between
them — the mixed-quality idea buys points the fixed policies cannot
reach.
"""

from repro.experiments.pareto import pulse_configuration_sweep
from repro.experiments.reporting import format_table


def test_pareto_frontier_of_configurations(bench_config, bench_trace):
    points = pulse_configuration_sweep(bench_config, bench_trace)
    print()
    print(
        format_table(
            [
                {
                    "configuration": p.label,
                    "keepalive_cost_usd": p.keepalive_cost_usd,
                    "accuracy_percent": p.accuracy_percent,
                    "frontier": "*" if p.on_frontier else "",
                }
                for p in sorted(points, key=lambda p: p.keepalive_cost_usd)
            ],
            title="PULSE configuration sweep (cost vs accuracy)",
        )
    )
    by = {p.label: p for p in points}
    # The anchors behave as anchors.
    assert by["all-lowest"].keepalive_cost_usd == min(
        p.keepalive_cost_usd for p in points
    )
    assert by["all-highest"].accuracy_percent == max(
        p.accuracy_percent for p in points
    )
    # At least one PULSE configuration sits on the frontier between them.
    pulse_frontier = [
        p
        for p in points
        if p.on_frontier and p.label not in ("all-lowest", "all-highest")
    ]
    assert pulse_frontier
    for p in pulse_frontier:
        assert p.accuracy_percent > by["all-lowest"].accuracy_percent
        assert p.keepalive_cost_usd < by["all-highest"].keepalive_cost_usd
