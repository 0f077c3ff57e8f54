"""Memory-capacity extension (DESIGN.md §8, grounded in §III-A).

Prints, per platform memory capacity, both policies' warm-start
fractions and the number of *random forced downgrades* the platform's
pressure valve performed. Shape: under tight capacity the fixed policy
suffers many forced downgrades and loses warm starts; PULSE's flattening
keeps memory under the cap and preempts nearly all of them.
"""

from repro.experiments.capacity import memory_capacity_study
from repro.experiments.reporting import format_table


def test_memory_capacity_pressure_valve(bench_config, bench_trace):
    points = memory_capacity_study(
        (6000.0, 9000.0, 12000.0),
        bench_config,
        bench_trace,
    )
    print()
    print(
        format_table(
            [
                {
                    "capacity_mb": p.capacity_mb,
                    "openwhisk_warm": p.openwhisk_warm_fraction,
                    "pulse_warm": p.pulse_warm_fraction,
                    "openwhisk_forced": p.openwhisk_forced_downgrades,
                    "pulse_forced": p.pulse_forced_downgrades,
                }
                for p in points
            ],
            title="Memory-capacity study: forced random downgrades",
        )
    )
    tightest = points[0]
    assert tightest.openwhisk_forced_downgrades > 5 * max(
        tightest.pulse_forced_downgrades, 1.0
    )
    assert tightest.pulse_warm_fraction >= tightest.openwhisk_warm_fraction
    # With generous capacity the cap stops mattering for PULSE entirely.
    assert points[-1].pulse_forced_downgrades <= points[0].pulse_forced_downgrades
