"""Cross-function (global) optimization (§III-B, Algorithm 2).

Every minute, after the function-centric plans are installed, the global
optimizer checks whether the minute's keep-alive memory constitutes a peak
(Algorithm 1). While it does, it:

1. normalizes the priority structure (Eq. 1);
2. computes ``Uv = Ai + Pr + Ip`` for every model currently kept alive;
3. downgrades the model with the lowest Uv by one variant — rewriting
   that function's remaining schedule entries — and gives it +1 in the
   priority structure;

until the peak is flattened (memory back within the threshold of the
prior) or nothing is left to downgrade. Downgrading a model already at
its lowest variant drops the keep-alive entirely ("or even cold starts").
"""

from __future__ import annotations

from time import perf_counter

from repro.core.function_optimizer import FunctionCentricOptimizer
from repro.core.peak import PeakDetector
from repro.core.priority import PriorityStructure
from repro.core.utility import UtilityComponents, UtilityWeights
from repro.models.variants import ModelFamily
from repro.obs.session import NULL_OBS
from repro.runtime.schedule import KeepAliveSchedule

__all__ = ["GlobalOptimizer"]


class GlobalOptimizer:
    """Algorithm 2, bound to a peak detector, priority structure and the
    function-centric optimizer that supplies invocation probabilities.

    ``weights`` defaults to the paper's equal weighting of the three
    utility components; the ablation harness zeroes individual terms.
    """

    #: Observability session; the owning policy replaces it at bind time
    #: when the run is observed (``PulsePolicy.on_bind``).
    obs = NULL_OBS

    def __init__(
        self,
        detector: PeakDetector,
        priority: PriorityStructure,
        function_optimizer: FunctionCentricOptimizer,
        weights: UtilityWeights | None = None,
    ):
        self.detector = detector
        self.priority = priority
        self.function_optimizer = function_optimizer
        self.weights = weights or UtilityWeights()
        self.n_downgrades = 0
        self.n_peak_minutes = 0

    def review(
        self,
        minute: int,
        schedule: KeepAliveSchedule,
        assignment: dict[int, ModelFamily],
    ) -> int:
        """Flatten a peak at ``minute`` if there is one.

        Returns the number of downgrades performed this minute, and always
        commits the (post-flattening) memory into the detector's history.
        """
        obs = self.obs
        if obs.spans_enabled:
            t0 = perf_counter()
            demand = schedule.memory_at(minute)
            prior = self.detector.prior_memory()
            is_peak = self.detector.is_peak(demand, prior)
            obs.spans.add("peak-detect", perf_counter() - t0)
        else:
            demand = schedule.memory_at(minute)
            prior = self.detector.prior_memory()
            is_peak = self.detector.is_peak(demand, prior)
        current = demand
        downgrades = 0
        if is_peak:
            self.n_peak_minutes += 1
            target = self.detector.flatten_target(prior)
            if obs.decisions_enabled:
                obs.record_peak(minute, demand, prior, target)
            t0 = perf_counter() if obs.spans_enabled else 0.0
            record = obs.decisions_enabled
            # fid -> (Ip, max-remaining probability). Nothing writes the
            # estimator during a review, so both hold for all of it.
            terms: dict[int, tuple[float, float]] = {}
            while current > target:
                alive = schedule.alive_at(minute)
                collect = [] if obs.decisions_enabled else None
                victim = self._lowest_utility(
                    alive, minute, assignment, collect, terms
                )
                if victim is None:
                    break  # nothing downgradable remains; as flat as it gets
                allow_drop = self._terms(terms, victim, minute)[1] == 0.0
                schedule.downgrade(
                    victim, minute, assignment[victim], allow_drop=allow_drop
                )
                self.priority.record_downgrade(victim)
                downgrades += 1
                current = schedule.memory_at(minute)
                if record:
                    new = schedule.alive_variant(victim, minute)
                    obs.record_downgrade(
                        minute, victim, alive[victim].name,
                        new.name if new is not None else None, collect,
                    )
            if obs.spans_enabled:
                obs.spans.add("downgrade-select", perf_counter() - t0)
        self.detector.observe(demand, current)
        self.n_downgrades += downgrades
        return downgrades

    def _terms(
        self, terms: dict[int, tuple[float, float]], fid: int, minute: int
    ) -> tuple[float, float]:
        """``fid``'s (Ip capped at 1, max-remaining probability), memoized
        in the review's ``terms``."""
        cached = terms.get(fid)
        if cached is None:
            fopt = self.function_optimizer
            ip = fopt.invocation_probability(fid, minute)
            cached = terms[fid] = (
                1.0 if 1.0 < ip else ip,  # min(ip, 1.0), NaN included
                fopt.max_remaining_probability(fid, minute),
            )
        return cached

    def _lowest_utility(
        self,
        alive: dict,
        minute: int,
        assignment: dict[int, ModelFamily],
        collect: list[dict] | None = None,
        terms: dict[int, tuple[float, float]] | None = None,
    ) -> int | None:
        """Alg. 2 lines 4–9: normalize priorities, score every kept-alive
        model, pick the minimum (ties: lowest function id, deterministic).

        A model already at its lowest variant can only be "downgraded" by
        dropping its keep-alive entirely; that is allowed only when it has
        zero invocation probability over its whole remaining window —
        §II's design principle ("the utilization of lower-quality models
        when there's even a slight chance of invocation prevents ... cold
        starts") and the guarantee of §V ("PULSE ensures that at least
        the container with low-quality model is kept alive"). Returns
        ``None`` when no model is eligible.

        ``collect``, when given, receives one dict per kept-alive model —
        the scored ``Ai``/``Pr``/``Ip``/``Uv`` terms, or a ``protected``
        marker — purely for the decision trace; it never affects scoring.
        ``terms`` memoizes each fid's Ip and max-remaining probability
        across one review's victim scans.

        Uv is summed in :meth:`UtilityWeights.apply`'s operand order, and
        a term outside [0, 1] raises :class:`UtilityComponents`' error.
        """
        if terms is None:
            terms = {}
        fids = sorted(alive)
        priorities = self.priority.normalized_at(fids)
        weights = self.weights
        w_ai = weights.accuracy_improvement
        w_pr = weights.priority
        w_ip = weights.invocation_probability
        best_fid: int | None = None
        best_uv = float("inf")
        for fid, pr in zip(fids, priorities):
            variant = alive[fid]
            ip, remaining = self._terms(terms, fid, minute)
            if variant.level == 0 and remaining > 0.0:
                if collect is not None:
                    collect.append(
                        {"fid": fid, "variant": variant.name, "protected": True}
                    )
                continue  # protected: dropping would risk a likely cold start
            ai = assignment[fid].accuracy_improvement(variant)
            if not (0.0 <= ai <= 1.0 and 0.0 <= pr <= 1.0 and 0.0 <= ip <= 1.0):
                UtilityComponents(ai, pr, ip)  # raises, naming the term
            value = w_ai * ai + w_pr * pr + w_ip * ip
            if collect is not None:
                collect.append({
                    "fid": fid,
                    "variant": variant.name,
                    "Ai": ai,
                    "Pr": pr,
                    "Ip": ip,
                    "Uv": value,
                })
            if value < best_uv:
                best_uv = value
                best_fid = fid
        return best_fid
