"""The live fault injector both engines consult during a run.

One :class:`FaultInjector` serves one run. It is created by the
simulator when the run's :class:`~repro.faults.plan.FaultPlan` has any
runtime fault axis enabled (``plan.injects_runtime``), and consulted at
exactly two points, both of which exist identically on the reference
minute loop and the columnar fleet kernel:

- **every cold start** — :meth:`cold_start_penalty` returns the extra
  user-visible seconds injected at that (function, minute): retry/backoff
  latency from failed container spawns plus a contention slowdown of the
  cold-start penalty itself. It also updates the run's resilience
  counters and, when enabled, the decision trace.
- **every minute's capacity check** — :meth:`effective_capacity` maps
  the configured standing memory capacity to the minute's effective one,
  applying the transient ``pressure_cap_mb`` on spike minutes. The
  engines then run the ordinary capacity pressure valve against the
  effective cap, so the peak detector and Algorithm 2 see pressure
  spikes through exactly the machinery the paper's valve already uses.

Determinism: every stochastic decision is drawn from a generator seeded
by ``SeedSequence(entropy=plan.seed, spawn_key=(axis, fid, minute))`` —
a pure function of the plan and the coordinate, never of call order.
Since both engines visit the same (function, minute) cold starts and the
same minutes, a fixed plan yields bit-identical faults on both.

The injector never drops an invocation (spawns always eventually
succeed) and draws nothing when a fault axis is disabled, so a plan with
all rates zero is indistinguishable from no plan at all.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import SALT_PRESSURE, SALT_SPAWN, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Per-run fault state: counters plus the precomputed spike minutes."""

    __slots__ = ("plan", "pressure_minutes", "n_spawn_failures", "n_retries")

    def __init__(self, plan: FaultPlan, horizon: int):
        self.plan = plan
        #: Failed spawn attempts observed so far (resilience counter).
        self.n_spawn_failures = 0
        #: Retries consumed (failures within the per-cold-start budget).
        self.n_retries = 0
        if plan.has_pressure:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=plan.seed, spawn_key=(SALT_PRESSURE,)
                )
            )
            # One bool per minute, drawn up front: which minutes spike.
            self.pressure_minutes = rng.random(horizon) < plan.pressure_rate
        else:
            self.pressure_minutes = None

    # -- memory pressure ---------------------------------------------------
    def effective_capacity(
        self, minute: int, capacity_mb: float | None
    ) -> float | None:
        """The memory capacity in force at ``minute``: the standing cap,
        tightened to ``pressure_cap_mb`` on spike minutes."""
        if self.pressure_minutes is None or not self.pressure_minutes[minute]:
            return capacity_mb
        cap = self.plan.pressure_cap_mb
        return cap if capacity_mb is None else min(capacity_mb, cap)

    # -- cold-start faults -------------------------------------------------
    def cold_start_penalty(
        self, minute: int, function_id: int, variant, rec=None
    ) -> float:
        """Extra service seconds injected at one cold start.

        ``variant`` is the serving :class:`~repro.models.variants.ModelVariant`;
        ``rec`` an :class:`~repro.obs.session.ObsSession` (or ``None``).

        Spawn model: the initial attempt fails with probability
        ``spawn_failure_rate``; each failure consumes a retry (at most
        ``max_spawn_retries``), and once the budget is spent the
        platform's fallback spawn succeeds unconditionally — invocations
        are delayed, never lost. Failure *i* (0-indexed) adds
        ``retry_penalty_s * (i + 1)`` seconds of backoff.

        Slowdown model: with probability ``cold_slowdown_rate`` the cold
        start runs under node contention and its penalty over a warm
        invocation (``variant.cold_start_penalty_s``) is stretched by
        ``cold_slowdown_factor`` — the injected extra is
        ``penalty * (factor - 1)``.
        """
        plan = self.plan
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=plan.seed,
                spawn_key=(SALT_SPAWN, function_id, minute),
            )
        )
        penalty_s = 0.0
        failures = 0
        if plan.spawn_failure_rate > 0.0:
            # initial attempt + up to max_spawn_retries retries may fail
            while (
                failures <= plan.max_spawn_retries
                and rng.random() < plan.spawn_failure_rate
            ):
                penalty_s += plan.retry_penalty_s * (failures + 1)
                failures += 1
            if failures:
                self.n_spawn_failures += failures
                self.n_retries += min(failures, plan.max_spawn_retries)
                if rec is not None:
                    rec.record_spawn_fault(
                        minute, function_id, variant.name, failures, penalty_s
                    )
        if (
            plan.cold_slowdown_rate > 0.0
            and rng.random() < plan.cold_slowdown_rate
        ):
            penalty_s += variant.cold_start_penalty_s * (
                plan.cold_slowdown_factor - 1.0
            )
        return penalty_s
