"""Integrating PULSE into existing warm-up techniques (Figure 8).

§IV: "Once techniques like Wild and IceBreaker forecast the inter-arrival
times of functions, PULSE takes the lead in determining which model
variant should be kept active and for how long."

:class:`PulseIntegratedPolicy` therefore composes a base predictor with a
full PULSE instance:

- the **base technique's predicted concurrency is preserved**: a minute
  is a keep-alive candidate only if the base policy would have kept the
  function warm then;
- within PULSE's keep-alive window, **PULSE picks the variant** for each
  candidate minute from its probability bands (instead of the base's
  indiscriminate highest-quality variant);
- beyond PULSE's window the keep-alive is released — PULSE also decides
  "for how long", so the base technique's long tails (Wild keeps
  containers until the 99th idle-time percentile) are cut to the
  keep-alive period PULSE reasons about. This is what collapses Wild's
  keep-alive cost (the paper reports −99 %) at the price of extra cold
  starts (+27 % service time), while IceBreaker — whose predictions are
  already short-horizon — just gets cheaper variants (−14 % cost, −7 %
  service time);
- PULSE's **cross-function optimizer** then flattens memory peaks as
  usual ("followed by PULSE's function-centric and global optimization").
"""

from __future__ import annotations

from repro.core.pulse import PulseConfig, PulsePolicy
from repro.models.variants import ModelFamily, ModelVariant
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.schedule import KeepAliveSchedule
from repro.traces.schema import Trace

__all__ = ["PulseIntegratedPolicy"]


class PulseIntegratedPolicy(KeepAlivePolicy):
    """A base warm-up predictor with PULSE layered on top."""

    def __init__(self, base: KeepAlivePolicy, pulse_config: PulseConfig | None = None):
        super().__init__()
        if isinstance(base, (PulsePolicy, PulseIntegratedPolicy)):
            raise TypeError("base must be a non-PULSE warm-up technique")
        self.base = base
        cfg = pulse_config or PulseConfig()
        if cfg.window is None:
            # PULSE reasons about the paper's 10-minute period even when
            # the engine capacity is larger to fit the base's long plans.
            cfg = type(cfg)(**{**cfg.__dict__, "window": 10})
        self.pulse = PulsePolicy(cfg)
        self.name = f"{base.name}+PULSE"
        self.is_oracle = base.is_oracle

    # -- lifecycle ------------------------------------------------------------
    def attach_observability(self, obs=None) -> None:
        super().attach_observability(obs)
        # The inner PULSE makes the actual variant/downgrade decisions, so
        # it owns the trace; the base predictor sees the session too in
        # case a custom base instruments itself.
        self.base.attach_observability(obs)
        self.pulse.attach_observability(obs)

    def bind(
        self,
        trace: Trace,
        assignment: dict[int, ModelFamily],
        keep_alive_window: int,
    ) -> None:
        super().bind(trace, assignment, keep_alive_window)
        self.base.bind(trace, assignment, keep_alive_window)
        self.pulse.bind(trace, assignment, keep_alive_window)

    def observe_invocation(self, function_id: int, minute: int, count: int) -> None:
        self.base.observe_invocation(function_id, minute, count)
        self.pulse.observe_invocation(function_id, minute, count)

    # -- decisions --------------------------------------------------------------
    def cold_variant(self, function_id: int, minute: int) -> ModelVariant:
        return self.pulse.cold_variant(function_id, minute)

    def plan(self, function_id: int, minute: int) -> list[ModelVariant | None]:
        base_plan = self.base.plan(function_id, minute)
        pulse_plan = self.pulse.plan(function_id, minute)
        combined: list[ModelVariant | None] = []
        for d in range(len(base_plan)):
            if base_plan[d] is None:
                combined.append(None)  # base predicts no invocation there
            elif d < len(pulse_plan):
                combined.append(pulse_plan[d])  # PULSE picks the variant
            else:
                combined.append(None)  # beyond PULSE's keep-alive period
        return combined

    def review_minute(self, minute: int, schedule: KeepAliveSchedule) -> None:
        self.pulse.review_minute(minute, schedule)
