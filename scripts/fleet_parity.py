#!/usr/bin/env python3
"""Fleet ≡ reference at a size the tier-1 goldens cannot afford.

Runs PULSE on a 1,000-function × 240-minute synthetic trace on the
reference engine and on the fleet engine, and requires the two run
summaries (wall clock excluded), the per-minute memory series (as
bytes) and the final Algorithm 2 priority counts to be identical. At
this size the fleet reducer's peak reviews pick hundreds of victims per
victim batch, which the golden tests' 12–500-function fleets rarely
reach. Prints both engines' times and exits 1 on any difference.

Usage::

    PYTHONPATH=src python scripts/fleet_parity.py
"""

from __future__ import annotations

import sys
import time

from repro.core.pulse import PulsePolicy
from repro.experiments.assignments import sample_assignment
from repro.runtime.driver import drive, open_stepper
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

N_FUNCTIONS = 1000
HORIZON = 240
SEED = 1


def run(trace, assignment, engine: str):
    """(RunResult, final priority counts, seconds) of one PULSE run."""
    policy = PulsePolicy()
    t0 = time.perf_counter()
    stepper = open_stepper(
        Simulation(trace, assignment, policy, SimulationConfig()), engine
    )
    drive(stepper)
    result = stepper.finalize()
    seconds = time.perf_counter() - t0
    counts = (
        stepper.fleet.priority.counts
        if engine == "fleet"
        else policy.priority_counts
    )
    return result, counts, seconds


def main() -> int:
    trace = generate_trace(
        SyntheticTraceConfig(
            seed=SEED, n_functions=N_FUNCTIONS, horizon_minutes=HORIZON
        )
    )
    assignment = sample_assignment(N_FUNCTIONS, seed=SEED)
    runs = {e: run(trace, assignment, e) for e in ("reference", "fleet")}
    (ref, ref_counts, ref_s), (fleet, fleet_counts, fleet_s) = runs.values()
    print(
        f"{N_FUNCTIONS} fns x {HORIZON} min: reference {ref_s:.2f} s, "
        f"fleet {fleet_s:.2f} s"
    )
    summaries = [
        {k: v for k, v in r.summary().items() if k != "wall_clock_s"}
        for r in (ref, fleet)
    ]
    diffs = [
        name
        for name, same in (
            ("summary", summaries[0] == summaries[1]),
            (
                "memory series",
                ref.memory_series_mb.tobytes()
                == fleet.memory_series_mb.tobytes(),
            ),
            ("priority counts", ref_counts.tolist() == fleet_counts.tolist()),
        )
        if not same
    ]
    if diffs:
        print("fleet differs from reference in: " + ", ".join(diffs))
        return 1
    print(
        f"fleet == reference: summary, memory series, priority counts "
        f"({int(ref_counts.sum())} Algorithm 2 downgrades)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
