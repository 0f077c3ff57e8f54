"""Deterministic fault injection and crash isolation.

Three pieces:

- :class:`~repro.faults.plan.FaultPlan` — the seeded, picklable fault
  model (spawn failures, cold-start slowdowns, memory-pressure spikes,
  trace perturbations). Pass it as ``SimulationConfig(faults=...)`` or
  on the CLI as ``--faults spawn=0.1,pressure=0.05,pressure-mb=4000``.
- :class:`~repro.faults.injector.FaultInjector` — the per-run engine
  hook that turns a plan into concrete, seed-deterministic faults,
  identically on the reference and fleet engines.
- :class:`~repro.faults.isolation.ResilientPolicy` — crash isolation
  for any keep-alive policy: caught exceptions degrade the affected
  function to the fixed 10-minute OpenWhisk fallback instead of killing
  the run.

See ``docs/architecture.md`` ("Fault injection & crash isolation") for
the determinism contract and the degradation semantics.
"""

from repro.faults.injector import FaultInjector
from repro.faults.isolation import FALLBACK_WINDOW_MINUTES, ResilientPolicy
from repro.faults.plan import FaultPlan

__all__ = [
    "FALLBACK_WINDOW_MINUTES",
    "FaultInjector",
    "FaultPlan",
    "ResilientPolicy",
]
