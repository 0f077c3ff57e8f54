"""Discrete-time serverless platform simulator.

The paper's evaluation is itself a simulation at minute resolution: a
policy decides, after every invocation, which model variant (if any) to
keep alive for each of the next 10 minutes; the platform then accounts
warm/cold starts, keep-alive memory and provider cost. This subpackage is
that platform:

- :mod:`repro.runtime.costmodel`  — MB-minute pricing;
- :mod:`repro.runtime.schedule`   — the keep-alive ledger policies write into;
- :mod:`repro.runtime.policy`     — the :class:`KeepAlivePolicy` interface;
- :mod:`repro.runtime.metrics`    — :class:`RunResult` and aggregation;
- :mod:`repro.runtime.simulator`  — the engine that drives a policy over a trace.
"""

from repro.runtime.costmodel import CostModel
from repro.runtime.schedule import KeepAliveSchedule
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.metrics import RunResult, aggregate_results, percent_improvement
from repro.runtime.simulator import Simulation, SimulationConfig

__all__ = [
    "CostModel",
    "KeepAlivePolicy",
    "KeepAliveSchedule",
    "RunResult",
    "Simulation",
    "SimulationConfig",
    "aggregate_results",
    "percent_improvement",
]
