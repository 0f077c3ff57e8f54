"""Observability: decision traces, metrics and span timings for runs.

The simulation engine can answer *what* happened (``RunResult``'s headline
numbers, the event log) but not *why* — which probability band mapped an
offset to which variant, which function Algorithm 2 downgraded during a
peak and what its ``Uv = Ai + Pr + Ip`` terms were, why a particular
invocation found nothing warm. This subpackage is that explanatory layer:

- :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms with labeled series;
- :mod:`repro.obs.spans`   — named wall-clock phase accumulators
  (estimate, band-mapping, peak-detect, downgrade-select,
  pool-reconcile, engine-total);
- :mod:`repro.obs.session` — :class:`ObsSession`, the per-run container
  the engine threads through the policy layer, and :data:`NULL_OBS`,
  the zero-cost disabled stand-in;
- :mod:`repro.obs.fleet`   — :class:`FleetObsSession`, the columnar
  variant the fleet engine uses: per-minute numpy partials plus seeded
  sampled decision traces instead of per-decision hook calls;
- :mod:`repro.obs.export`  — JSONL decision-trace dump/load and
  cross-run session merging (used by the sweep runner);
- :mod:`repro.obs.report`  — a self-contained SVG/HTML run report;
- :mod:`repro.obs.inspect` — :class:`TraceIndex`, which loads a JSONL
  trace and explains cold starts, band→variant assignments and
  downgrades (the ``python -m repro inspect`` backend).

Two hard guarantees, pinned by tests:

- **zero-cost when disabled** — with ``SimulationConfig.observe`` unset
  the engine allocates no recorder, no series and no per-minute
  bookkeeping; policies see only :data:`NULL_OBS` boolean flags;
- **metric-preserving when enabled** — instrumentation only *reads*
  simulation state (no RNG draws, no reordered float accumulation), so
  every headline ``RunResult`` field is bit-identical with observability
  on or off, on the reference, fast and fleet engines
  (``tests/test_obs_equivalence.py``, ``tests/test_fleet_obs.py``).
"""

from repro.obs.fleet import FleetObsSession
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.session import NULL_OBS, ObservabilityConfig, ObsSession
from repro.obs.spans import SpanTimer

__all__ = [
    "Counter",
    "FleetObsSession",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "ObservabilityConfig",
    "ObsSession",
    "SpanTimer",
]
