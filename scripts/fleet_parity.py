#!/usr/bin/env python3
"""Fleet ≡ reference at a size the tier-1 goldens cannot afford.

Runs PULSE on a 1,000-function × 240-minute synthetic trace on the
reference engine and on the fleet engine, and requires the two run
summaries (wall clock excluded), the per-minute memory series (as
bytes) and the final Algorithm 2 priority counts to be identical. At
this size the fleet reducer's peak reviews pick hundreds of victims per
victim batch, which the golden tests' 12–500-function fleets rarely
reach. Two PULSE configurations run: the default (``survival`` mode,
``window`` normalization) and ``hazard`` mode with ``all``
normalization, so the estimator's other normalization and a mode
transform other than the default reach the planner and the peak
reviews. Each must pick Algorithm 2 victims, or the check would not
have reached the reducer. Prints both engines' times per configuration
and exits 1 on any difference.

Usage::

    PYTHONPATH=src python scripts/fleet_parity.py
"""

from __future__ import annotations

import sys
import time

from repro.core.pulse import PulseConfig, PulsePolicy
from repro.experiments.assignments import sample_assignment
from repro.runtime.driver import drive, open_stepper
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

N_FUNCTIONS = 1000
HORIZON = 240
SEED = 1
#: Configuration label -> the PULSE configuration both engines run.
CONFIGS = {
    "survival/window": PulseConfig(),
    "hazard/all": PulseConfig(
        probability_mode="hazard", probability_normalization="all"
    ),
}


def run(trace, assignment, config: PulseConfig, engine: str):
    """(RunResult, final priority counts, seconds) of one PULSE run."""
    policy = PulsePolicy(config)
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


def check(trace, assignment, label: str, config: PulseConfig) -> bool:
    """Run one configuration on both engines; print and return whether
    the fleet matched the reference and Algorithm 2 ran."""
    runs = {e: run(trace, assignment, config, e) for e in ("reference", "fleet")}
    (ref, ref_counts, ref_s), (fleet, fleet_counts, fleet_s) = runs.values()
    print(
        f"{label}: {N_FUNCTIONS} fns x {HORIZON} min: reference "
        f"{ref_s:.2f} s, fleet {fleet_s:.2f} s"
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
        print(f"{label}: fleet differs from reference in: " + ", ".join(diffs))
        return False
    n_downgrades = int(ref_counts.sum())
    if not n_downgrades:
        print(f"{label}: no Algorithm 2 downgrades, the reducer was not reached")
        return False
    print(
        f"{label}: fleet == reference: summary, memory series, priority "
        f"counts ({n_downgrades} Algorithm 2 downgrades)"
    )
    return True


def main() -> int:
    trace = generate_trace(
        SyntheticTraceConfig(
            seed=SEED, n_functions=N_FUNCTIONS, horizon_minutes=HORIZON
        )
    )
    assignment = sample_assignment(N_FUNCTIONS, seed=SEED)
    ok = [
        check(trace, assignment, label, config)
        for label, config in CONFIGS.items()
    ]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
