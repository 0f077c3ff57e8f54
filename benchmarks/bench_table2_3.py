"""Tables II & III — strategy comparison over the two post-peak windows.

Prints both tables (all-high / all-low / random-mixed / intelligent over
the 10 minutes after each of the two most prominent invocation peaks).
Shapes to match the paper: service time, cost and accuracy all order
high > mixed > low; the intelligent oracle's accuracy approaches all-high
at lower cost; every strategy serves the same number of (warm)
invocations.
"""

from repro.experiments.peaks import tables2_3_peak_strategies
from repro.experiments.reporting import format_table


def test_tables2_3_peak_strategies(bench_trace, bench_assignment):
    tables = tables2_3_peak_strategies(bench_trace, bench_assignment)
    print()
    for name, rows in tables.items():
        printable = [
            {
                "strategy": r.strategy,
                "service_time_s": r.service_time_s,
                "keepalive_cost_usd": r.keepalive_cost_usd,
                "accuracy_percent": r.accuracy_percent,
                "invocations": r.n_invocations,
            }
            for r in rows
        ]
        print(format_table(printable, title=name))
        print()
    for rows in tables.values():
        by = {r.strategy: r for r in rows}
        assert (
            by["all_high"].keepalive_cost_usd
            > by["random_mixed"].keepalive_cost_usd
            > by["all_low"].keepalive_cost_usd
        )
        assert by["all_high"].accuracy_percent >= by["intelligent"].accuracy_percent
        assert by["intelligent"].accuracy_percent >= by["all_low"].accuracy_percent
        assert by["all_high"].service_time_s > by["all_low"].service_time_s
        assert len({r.n_invocations for r in rows}) == 1  # equal warm starts
