"""Columnar observability for the fleet engine.

The loop engines instrument by calling a ``record_*`` hook per decision;
at fleet scale (10k–100k functions) that is one Python call per
function-minute and would swamp the vectorized kernel. The fleet session
keeps the same external contract — it *is* an :class:`ObsSession`, rides
``RunResult.obs``, merges, pickles, exports — but accumulates telemetry
in per-minute numpy partials instead:

- ``plan_level_counts``                   — a histogram of planned
  keep-alive variant levels across every plan written;
- ``mem_series`` / ``valve_series`` / ``downgrade_series`` — per-minute
  committed memory, forced-valve victims and Algorithm-2 downgrades.

Invocation and cold-start totals are not duplicated here: the engine's
own counters feed ``invocations_total`` / ``cold_starts_total``. The
``tally_*`` batch hooks take whole arrays or already reduced integers,
cost O(1) Python calls per minute, and only *read* engine state — no
RNG draws, no float-accumulation reorder — so obs-on fleet runs stay
bit-identical to obs-off.

**Sampled decision traces.** Full per-decision records (plans with
probability vectors, cold starts, downgrade ``Uv = Ai + Pr + Ip``
candidate tables) are kept for a deterministic sample of at most
``ObservabilityConfig.trace_sample`` function ids, drawn once from
``trace_sample_seed``. Sampled records reuse the parent ``record_*``
methods verbatim, so JSONL export and ``repro inspect`` why-queries work
unchanged; everything outside the sample contributes only to the
aggregate partials. Candidate tables are capped at
:data:`CANDIDATE_CAP` lowest-``Uv`` rows (victim always included) so one
peak minute at 100k functions cannot materialize a 100k-row record.
"""

from __future__ import annotations

import numpy as np

from repro.obs.session import ObservabilityConfig, ObsSession
from repro.utils.rng import rng_from_seed

__all__ = ["CANDIDATE_CAP", "FleetObsSession"]

#: Max rows kept in a sampled downgrade's candidate table (lowest ``Uv``
#: first, the victim always retained). Records note the truncation.
CANDIDATE_CAP = 32


class FleetObsSession(ObsSession):
    """One fleet run's telemetry: columnar partials + sampled records."""

    __slots__ = (
        "n_functions", "horizon",
        "plan_level_counts", "mem_series", "valve_series",
        "downgrade_series", "n_peaks",
        "sample_fids", "sample_mask", "has_sample", "_last_seen",
    )

    def __init__(
        self,
        config: ObservabilityConfig | None = None,
        *,
        n_functions: int,
        horizon: int,
    ):
        super().__init__(config)
        self.n_functions = int(n_functions)
        self.horizon = int(horizon)
        self.plan_level_counts = np.zeros(8, dtype=np.int64)
        self.mem_series = np.zeros(self.horizon, dtype=np.float64)
        self.valve_series = np.zeros(self.horizon, dtype=np.int64)
        self.downgrade_series = np.zeros(self.horizon, dtype=np.int64)
        self.n_peaks = 0
        k = min(self.config.trace_sample, self.n_functions)
        if not self.decisions_enabled:
            k = 0
        if k > 0:
            rng = rng_from_seed(self.config.trace_sample_seed)
            fids = np.sort(
                rng.choice(self.n_functions, size=k, replace=False)
            ).astype(np.int64)
        else:
            fids = np.empty(0, dtype=np.int64)
        self.sample_fids = fids
        mask = np.zeros(self.n_functions, dtype=bool)
        mask[fids] = True
        self.sample_mask = mask
        self.has_sample = bool(k)
        # Sampled fids' previous arrival minute (None before the first),
        # mirroring the loop engines' last_arrival bookkeeping so sampled
        # ``cold`` records carry the same field.
        self._last_seen: dict[int, int | None] = {int(f): None for f in fids}

    # -- columnar batch hooks ------------------------------------------------
    def tally_plans(self, levels: np.ndarray) -> None:
        """Fold a batch of planned keep-alive variant levels in — any
        shape; ``-1`` entries (keep-nothing offsets) are ignored. One
        shifted bincount, no scan/filter passes: this runs once per
        minute on the whole plan matrix."""
        flat = np.ravel(levels)
        if flat.size == 0:
            return
        counts = np.bincount(
            flat + 1, minlength=self.plan_level_counts.size + 1
        )[1:]
        if counts.size > self.plan_level_counts.size:
            grown = np.zeros(counts.size, dtype=np.int64)
            grown[: self.plan_level_counts.size] = self.plan_level_counts
            self.plan_level_counts = grown
        self.plan_level_counts[: counts.size] += counts

    def tally_memory(self, minute: int, mem_mb: float) -> None:
        self.mem_series[minute] = mem_mb

    def tally_peak(self) -> None:
        self.n_peaks += 1

    def tally_downgrade(self, minute: int, n: int = 1) -> None:
        self.downgrade_series[minute] += n

    def tally_valve(self, minute: int, n: int = 1) -> None:
        self.valve_series[minute] += n

    # -- sampled decision traces ---------------------------------------------
    def is_sampled(self, function_id: int) -> bool:
        return self.has_sample and bool(self.sample_mask[function_id])

    def last_seen(self, function_id: int) -> int | None:
        """A sampled fid's previous arrival minute (``None`` before the
        first) — the columnar kernel does not thread per-fid history
        through the serve path, so sampled ``cold`` records read it from
        the session's own bookkeeping."""
        return self._last_seen.get(function_id)

    def note_arrival(self, function_id: int, minute: int) -> None:
        """Mark a sampled fid as served this minute (call after its
        cold/plan records for the minute are written)."""
        self._last_seen[function_id] = minute

    # -- finalization --------------------------------------------------------
    def finalize_fleet_metrics(self) -> None:
        """Register the fleet-only aggregate series from the columnar
        partials. The metric names shared with the reference engine are
        registered by the fleet stepper itself; these are the extras
        that only make sense for a columnar run."""
        if not self.metrics_enabled:
            return
        met = self.metrics
        plan_counter = met.counter(
            "fleet_plan_level_total", "planned keep-alive slots per variant level"
        )
        for level, n in enumerate(self.plan_level_counts):
            if n:
                plan_counter.inc(int(n), level=str(level))
        met.counter(
            "fleet_peaks_total", "memory peaks flagged by the fleet reducer"
        ).inc(self.n_peaks)
        met.gauge(
            "fleet_trace_sample", "sampled function ids with full decision traces"
        ).set(float(self.sample_fids.size))

    def __repr__(self) -> str:
        return (
            f"FleetObsSession(functions={self.n_functions}, "
            f"records={len(self.records)}, "
            f"sample={self.sample_fids.size})"
        )

    # -- pickling ------------------------------------------------------------
    def __getstate__(self):
        state = super().__getstate__()
        state.update({
            "n_functions": self.n_functions,
            "horizon": self.horizon,
            "plan_level_counts": self.plan_level_counts,
            "mem_series": self.mem_series,
            "valve_series": self.valve_series,
            "downgrade_series": self.downgrade_series,
            "n_peaks": self.n_peaks,
            "sample_fids": self.sample_fids,
            "last_seen": self._last_seen,
        })
        return state

    def __setstate__(self, state):
        super().__setstate__(state)
        self.n_functions = state["n_functions"]
        self.horizon = state["horizon"]
        self.plan_level_counts = state["plan_level_counts"]
        self.mem_series = state["mem_series"]
        self.valve_series = state["valve_series"]
        self.downgrade_series = state["downgrade_series"]
        self.n_peaks = state["n_peaks"]
        self.sample_fids = state["sample_fids"]
        mask = np.zeros(self.n_functions, dtype=bool)
        mask[self.sample_fids] = True
        self.sample_mask = mask
        self.has_sample = bool(self.sample_fids.size)
        self._last_seen = state["last_seen"]
