"""Shared experiment orchestration.

Runs one or many (policy, assignment) simulations over a trace and
aggregates. Policies are passed as zero-argument *factories* because a
policy instance carries per-run state and must be fresh for every run;
build them with ``functools.partial(repro.api.make_policy, name)`` (a
picklable replacement for the historical zero-arg lambdas).

Multi-run sweeps can fan out over processes (``n_jobs``): each worker
rebuilds its simulation from picklable inputs, which follows the
scientific-Python guidance of parallelizing at the outermost (run) level
where work units are seconds long and independent.
"""

from __future__ import annotations

import traceback
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.models.variants import ModelFamily
from repro.models.zoo import ModelZoo, default_zoo
from repro.runtime.metrics import RunResult
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import MINUTES_PER_DAY, Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.experiments.assignments import sample_assignments
from repro.utils.specs import parse_engine
from repro.utils.validation import check_positive_int

__all__ = [
    "ExperimentConfig",
    "PolicyFactory",
    "RunError",
    "default_trace",
    "merged_telemetry",
    "run_policies",
    "run_policy",
    "split_errors",
]

PolicyFactory = Callable[[], KeepAlivePolicy]


@dataclass(frozen=True)
class RunError:
    """A per-run failure record (``run_policies(..., on_error="record")``).

    Takes the failed run's slot in the results list so the paired-design
    indexing survives: entry ``i`` of every policy's list still belongs
    to assignment ``i``, whether it is a :class:`RunResult` or this.
    """

    policy: str
    run_index: int
    error_type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(
        cls, policy: str, run_index: int, exc: BaseException
    ) -> "RunError":
        return cls(
            policy=policy,
            run_index=run_index,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )


def split_errors(
    results: dict[str, list[RunResult | RunError]],
) -> tuple[dict[str, list[RunResult]], list[RunError]]:
    """Separate a mixed sweep result into clean runs and failure records."""
    ok: dict[str, list[RunResult]] = {}
    errors: list[RunError] = []
    for name, runs in results.items():
        ok[name] = [r for r in runs if isinstance(r, RunResult)]
        errors.extend(r for r in runs if isinstance(r, RunError))
    return ok, errors


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and determinism knobs shared by the experiment functions.

    Paper scale is ``n_runs=1000`` over the full two-week trace; the
    defaults here (20 runs x 2 days) keep a laptop reproduction in
    minutes. Benches shrink further.
    """

    n_runs: int = 20
    horizon_minutes: int = 2 * MINUTES_PER_DAY
    seed: int = 2024
    n_jobs: int = 1
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    #: Engine every run dispatches on (see ``Simulation.run``): "auto"
    #: and "reference" run the reference minute loop, "fleet" the
    #: columnar kernel for large fleets. Both engines are
    #: metric-identical, so this is speed only.
    engine: str = "auto"

    def __post_init__(self) -> None:
        check_positive_int("n_runs", self.n_runs)
        check_positive_int("horizon_minutes", self.horizon_minutes)
        check_positive_int("n_jobs", self.n_jobs)
        # One engine vocabulary everywhere (CLI, api facade, sessions):
        # canonicalize through the shared parser, keeping the frozen
        # field normalized for the durable layer's config hashing.
        object.__setattr__(
            self, "engine", parse_engine(self.engine, flag="engine")
        )


def default_trace(config: ExperimentConfig) -> Trace:
    """The calibrated synthetic Azure-like trace at the config's horizon."""
    return generate_trace(
        SyntheticTraceConfig(horizon_minutes=config.horizon_minutes, seed=config.seed)
    )


def run_policy(
    trace: Trace,
    assignment: dict[int, ModelFamily],
    policy: KeepAlivePolicy,
    sim: SimulationConfig | None = None,
    engine: str = "auto",
) -> RunResult:
    """One simulation run (thin convenience wrapper)."""
    return Simulation(trace, assignment, policy, sim).run(engine=engine)


def _one_run(
    args: tuple[
        Trace, dict[int, ModelFamily], PolicyFactory, SimulationConfig, str
    ],
) -> RunResult:
    trace, assignment, factory, sim, engine = args
    return Simulation(trace, assignment, factory(), sim).run(engine=engine)


# The trace dominates the pickled payload of a sweep task (counts is an
# (n_functions x horizon) array; assignments and configs are tiny). Workers
# therefore receive it once, at pool start, through the initializer below,
# and per-task payloads carry only the per-run pieces.
_worker_trace: Trace | None = None


def _init_worker(trace: Trace) -> None:
    global _worker_trace
    _worker_trace = trace


def _one_worker_run(
    args: tuple[dict[int, ModelFamily], PolicyFactory, SimulationConfig, str],
) -> RunResult:
    assignment, factory, sim, engine = args
    assert _worker_trace is not None, "pool initializer did not run"
    return Simulation(_worker_trace, assignment, factory(), sim).run(
        engine=engine
    )


def run_policies(
    trace: Trace,
    policies: dict[str, PolicyFactory],
    config: ExperimentConfig,
    zoo: ModelZoo | None = None,
    *,
    on_error: str = "raise",
) -> dict[str, list[RunResult | RunError]]:
    """Run every policy over the same ``n_runs`` sampled assignments.

    All policies see identical assignments run-for-run, so per-run metric
    differences are attributable to the policy alone (paired design).

    With ``n_jobs > 1`` a single process pool is shared across *all*
    policies (one worker spawn + one trace transfer per sweep, not per
    policy), and the trace ships to each worker exactly once via the pool
    initializer rather than inside every task.

    ``on_error`` picks the failure semantics. ``"raise"`` (default)
    propagates the first worker exception. ``"record"`` isolates each
    failure into a :class:`RunError` occupying that run's slot — the
    sweep continues, and :func:`split_errors` separates survivors from
    failures afterwards.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(
            f"on_error must be 'raise' or 'record', got {on_error!r}"
        )
    zoo = zoo or default_zoo()
    assignments = sample_assignments(
        trace.n_functions, config.n_runs, zoo, seed=config.seed
    )
    out: dict[str, list[RunResult | RunError]] = {}
    if config.n_jobs > 1:
        with ProcessPoolExecutor(
            max_workers=config.n_jobs,
            initializer=_init_worker,
            initargs=(trace,),
        ) as pool:
            # submit() rather than map(): map's lazy iterator aborts the
            # whole sweep at the first worker exception, losing every
            # result after it; per-future collection keeps the rest.
            futures = {
                name: [
                    pool.submit(
                        _one_worker_run,
                        (a, factory, config.sim, config.engine),
                    )
                    for a in assignments
                ]
                for name, factory in policies.items()
            }
            for name, futs in futures.items():
                runs: list[RunResult | RunError] = []
                for idx, fut in enumerate(futs):
                    try:
                        runs.append(fut.result())
                    except Exception as exc:
                        if on_error == "raise":
                            raise
                        runs.append(RunError.from_exception(name, idx, exc))
                out[name] = runs
    else:
        for name, factory in policies.items():
            runs = []
            for idx, a in enumerate(assignments):
                try:
                    runs.append(
                        _one_run(
                            (trace, a, factory, config.sim, config.engine)
                        )
                    )
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    runs.append(RunError.from_exception(name, idx, exc))
            out[name] = runs
    return out


def merged_telemetry(results: dict[str, list[RunResult]]):
    """Merge each policy's per-run observability sessions into one.

    Returns ``{policy_name: ObsSession}`` with counters summed, span
    timings pooled and ``n_runs`` counting the contributing runs —
    per-run decision records are dropped (they only make sense against a
    single run's timeline). Sessions travel back from pool workers by
    pickling, so this works identically for ``n_jobs > 1`` sweeps.
    Policies whose runs were unobserved are omitted; an all-unobserved
    sweep yields an empty dict.
    """
    from repro.obs.export import merge_sessions

    out = {}
    for name, runs in results.items():
        merged = merge_sessions(
            r.obs for r in runs if isinstance(r, RunResult)
        )
        if merged is not None:
            out[name] = merged
    return out
