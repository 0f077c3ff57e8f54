"""The PULSE keep-alive policy (the paper's contribution, assembled).

Wires the function-centric optimizer (inter-arrival probabilities +
greedy threshold mapping) and the cross-function optimizer (Algorithm 1
peak detection + Algorithm 2 utility-based downgrades) into the
:class:`~repro.runtime.policy.KeepAlivePolicy` interface the simulator
drives.

Typical use::

    from repro import PulsePolicy, PulseConfig, Simulation, generate_trace
    from repro.experiments.assignments import sample_assignment

    trace = generate_trace()
    assignment = sample_assignment(trace.n_functions, seed=1)
    result = Simulation(trace, assignment, PulsePolicy()).run()
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.function_optimizer import FunctionCentricOptimizer
from repro.core.global_optimizer import GlobalOptimizer
from repro.core.interarrival import InterArrivalEstimator
from repro.core.peak import PeakDetector
from repro.core.priority import PriorityStructure
from repro.core.thresholds import ThresholdScheme, get_scheme
from repro.core.utility import UtilityWeights
from repro.models.variants import ModelVariant
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.schedule import KeepAliveSchedule
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["PulseConfig", "PulsePolicy"]


@dataclass(frozen=True)
class PulseConfig:
    """PULSE's tunables, with the paper's defaults.

    - ``local_window`` — sliding immediate-past period in minutes
      (Figure 12 evaluates 10/60/120);
    - ``memory_threshold`` — Algorithm 1's KM_T (Figure 11 evaluates
      0.05/0.10/0.15);
    - ``threshold_scheme`` — "T1" or "T2" (Figure 10), or any
      :class:`~repro.core.thresholds.ThresholdScheme` instance;
    - ``enable_global`` — turn the cross-function stage off to reproduce
      Figure 4(b) (individual optimization only, peaks persist);
    - ``cold_variant`` — which variant a cold start brings up
      ("highest", matching the quality a fixed policy would deliver, or
      "lowest" for the cheapest possible recovery).
    """

    local_window: int = 60
    memory_threshold: float = 0.10
    threshold_scheme: str | ThresholdScheme = "T1"
    enable_global: bool = True
    cold_variant: str = "highest"
    probability_normalization: str = "window"
    probability_mode: str = "survival"
    window: int | None = None  # None: use the engine's keep-alive window
    utility_weights: UtilityWeights | None = None  # None: equal (the paper)
    prior_rule: str = "algorithm1"  # "previous_minute" = naive ablation

    def __post_init__(self) -> None:
        check_positive_int("local_window", self.local_window)
        check_positive("memory_threshold", self.memory_threshold)
        if self.cold_variant not in ("highest", "lowest"):
            raise ValueError(
                f"cold_variant must be 'highest' or 'lowest', got "
                f"{self.cold_variant!r}"
            )
        if self.probability_normalization not in ("all", "window"):
            raise ValueError(
                "probability_normalization must be 'all' or 'window', got "
                f"{self.probability_normalization!r}"
            )
        if self.probability_mode not in ("exact", "survival", "cumulative", "hazard"):
            raise ValueError(
                "probability_mode must be 'exact', 'survival', 'cumulative' "
                f"or 'hazard', got {self.probability_mode!r}"
            )
        if self.window is not None:
            check_positive_int("window", self.window)
        if self.prior_rule not in ("algorithm1", "previous_minute"):
            raise ValueError(
                "prior_rule must be 'algorithm1' or 'previous_minute', got "
                f"{self.prior_rule!r}"
            )
        get_scheme(self.threshold_scheme)  # validate early


class PulsePolicy(KeepAlivePolicy):
    """PULSE: mixed-quality dynamic keep-alive."""

    def __init__(self, config: PulseConfig | None = None):
        super().__init__()
        self.config = config or PulseConfig()
        scheme = get_scheme(self.config.threshold_scheme)
        self.name = f"PULSE-{scheme.name}" if scheme.name != "T1" else "PULSE"
        self._scheme = scheme
        # Built at bind time (need n_functions / window):
        self._estimator: InterArrivalEstimator | None = None
        self._fopt: FunctionCentricOptimizer | None = None
        self._gopt: GlobalOptimizer | None = None

    def on_bind(self) -> None:
        window = self.config.window or self.keep_alive_window
        if window > self.keep_alive_window:
            raise ValueError(
                f"PULSE window {window} exceeds the engine's keep-alive "
                f"window {self.keep_alive_window}"
            )
        self._estimator = InterArrivalEstimator(
            n_functions=self.n_functions,
            window=window,
            local_window=self.config.local_window,
            normalization=self.config.probability_normalization,
            mode=self.config.probability_mode,
        )
        self._fopt = FunctionCentricOptimizer(self._estimator, self._scheme)
        self._gopt = GlobalOptimizer(
            detector=PeakDetector(
                memory_threshold=self.config.memory_threshold,
                local_window=self.config.local_window,
                prior_rule=self.config.prior_rule,
            ),
            priority=PriorityStructure(self.n_functions),
            function_optimizer=self._fopt,
            weights=self.config.utility_weights,
        )
        # Propagate the run's telemetry (attach_observability precedes
        # bind, so these are final). Instance attributes shadow the
        # NULL_OBS class defaults only on observed runs.
        if self.obs.enabled:
            self._fopt.obs = self.obs
            self._gopt.obs = self.obs

    # -- engine interface ---------------------------------------------------
    def observe_invocation(self, function_id: int, minute: int, count: int) -> None:
        assert self._estimator is not None
        self._estimator.observe(function_id, minute)

    def cold_variant(self, function_id: int, minute: int) -> ModelVariant:
        family = self.family(function_id)
        return family.highest if self.config.cold_variant == "highest" else family.lowest

    def plan(self, function_id: int, minute: int) -> list[ModelVariant | None]:
        assert self._fopt is not None
        return self._fopt.plan(function_id, minute, self.family(function_id))

    def review_minute(self, minute: int, schedule: KeepAliveSchedule) -> None:
        assert self._gopt is not None
        if self.config.enable_global:
            self._gopt.review(minute, schedule, self.assignment)
        else:
            # Still feed the detector so diagnostics stay meaningful.
            self._gopt.detector.observe(schedule.memory_at(minute))

    # -- diagnostics ---------------------------------------------------------
    @property
    def n_downgrades(self) -> int:
        """Total Algorithm-2 downgrades performed so far."""
        return self._gopt.n_downgrades if self._gopt else 0

    @property
    def n_peak_minutes(self) -> int:
        """Minutes flagged as peaks so far."""
        return self._gopt.n_peak_minutes if self._gopt else 0

    @property
    def priority_counts(self):
        """Raw downgrade counts per function (the priority structure)."""
        assert self._gopt is not None
        return self._gopt.priority.counts
