"""Workload ``paper-sweep``: the paper's own experiment.

Input: the calibrated 12-function Azure-like trace at the paper's
14-day horizon, generated from ``--seed``, and the first assignment of
the experiment layer's default sample (seed 2024), so the headline
comparison uses the same model mix on every seed.

Drive: ``repro.api.run_sweep`` over ``openwhisk`` and ``pulse``,
in-process, ``n_jobs=1``, ``engine="auto"``, default
``SimulationConfig``. After an untimed set-up and warm-up, iterations
repeat until the window is spent (three at the least); one iteration is
a timed sweep and three timed set-ups. Throughput is over the fastest
sweep and set-up time is the median. Every repeat must reproduce the
first. After the timed sweeps one (assignment, ``pulse``) run is
replayed on the reference engine and must give the same summary.
"""

from __future__ import annotations

import gc
import itertools
import time

from common import (
    Outcome,
    Window,
    active_shares,
    guards,
    median,
    peak_rss_mb,
    quality,
    summary_diff,
)
from tracing import Tracer, maybe_span

from repro.api import make_policy, run_sweep, simulate
from repro.experiments.assignments import sample_assignments
from repro.experiments.runner import ExperimentConfig, RunError
from repro.models.zoo import default_zoo
from repro.runtime.simulator import Simulation
from repro.serve.session import open_session
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

POLICIES = ["openwhisk", "pulse"]
#: One assignment per sweep keeps a sweep near two seconds, so a window
#: holds enough sweeps for their median to pass over the host's slow
#: spells (seconds long); the headline metrics move by ~3% across
#: trace seeds on it.
N_ASSIGNMENTS = 1
#: ``ExperimentConfig``'s default seed: the experiments' assignment sample.
ASSIGNMENT_SEED = 2024
#: Timed set-ups after each sweep, so they are spread across the
#: window like the sweeps.
SETUPS_PER_SWEEP = 3
#: Iterations at the least, so the fastest sweep is a choice among
#: several.
MIN_ITERATIONS = 3


def _config(trace) -> ExperimentConfig:
    return ExperimentConfig(
        n_runs=N_ASSIGNMENTS,
        horizon_minutes=trace.horizon,
        seed=ASSIGNMENT_SEED,
        n_jobs=1,
        engine="auto",
    )


def _setup(seed: int, tracer: Tracer | None = None):
    """One set-up: trace, assignment sample, one engine open per
    (assignment, policy). Returns (seconds, trace, assignments)."""
    t0 = time.perf_counter()
    with maybe_span(tracer, "traces.generate"):
        trace = generate_trace(SyntheticTraceConfig(seed=seed))
    assignments = sample_assignments(
        trace.n_functions, N_ASSIGNMENTS, default_zoo(), seed=ASSIGNMENT_SEED
    )
    for a in assignments:
        for name in POLICIES:
            open_session(trace, policy=name, assignment=a)
    return time.perf_counter() - t0, trace, assignments


def _warm_up(seed: int) -> None:
    """Fill lazy imports and first-call caches on a one-day trace."""
    day = generate_trace(SyntheticTraceConfig(seed=seed, horizon_minutes=1440))
    a = sample_assignments(day.n_functions, 1, default_zoo(), seed=seed)[0]
    for name in POLICIES:
        simulate(day, assignment=a, policy=name)


def _sweep(trace, ctx) -> tuple[float, dict]:
    t0 = time.perf_counter()
    runs = run_sweep(trace, policies=POLICIES, config=_config(trace))
    wall = time.perf_counter() - t0
    for name, results in runs.items():
        for r in results:
            ctx.tally.op(
                not isinstance(r, RunError),
                f"{name} run failed: {getattr(r, 'message', '')}",
            )
    return wall, runs


def _check_first(ctx, trace, first: dict) -> None:
    expected = int(trace.counts.sum())
    for name in POLICIES:
        for i, r in enumerate(first[name]):
            ctx.tally.check(
                f"{name}[{i}] invocations",
                [] if r.n_invocations == expected else ["n_invocations"],
            )


def _check_repeat(ctx, first: dict, later: dict) -> None:
    """A repeat sweep must reproduce the first; it is dropped after."""
    for name in POLICIES:
        for i, (a, b) in enumerate(zip(first[name], later[name])):
            ctx.tally.check(
                f"repeat {name}[{i}]", summary_diff(a.summary(), b.summary())
            )


def _check_reference(ctx, trace, assignments, first: dict) -> None:
    ref = simulate(
        trace, assignment=assignments[0], policy="pulse", engine="reference"
    )
    ctx.tally.check(
        "pulse[0] on the reference engine",
        summary_diff(first["pulse"][0].summary(), ref.summary()),
    )


def _install(tracer: Tracer, labels: dict[str, str]) -> None:
    """Shim the engine layer: opening a run and running it (named by
    its policy, so ``core``'s cost shows as pulse minus openwhisk)."""
    tracer.wrap(Simulation, "__init__", "runtime.open")
    tracer.wrap(
        Simulation, "run",
        lambda sim, *a, **k: "runtime.run." + labels.get(
            type(sim.policy).__name__, "other"
        ),
    )


def _provenance(ctx, trace) -> dict:
    return {
        "seed": ctx.seed,
        "n_functions": trace.n_functions,
        "horizon_minutes": trace.horizon,
        "n_assignments": N_ASSIGNMENTS,
        "assignment_seed": ASSIGNMENT_SEED,
        "policies": POLICIES,
        "invocations": int(trace.counts.sum()),
        **active_shares(trace.counts),
    }


def run(ctx) -> Outcome:
    if ctx.trace:
        return _run_traced(ctx)
    _, trace, assignments = _setup(ctx.seed)  # first-call imports
    _warm_up(ctx.seed)
    window = Window(ctx.seconds)
    setup_s: list[float] = []
    walls: list[float] = []
    iteration_s: list[float] = []
    first: dict = {}
    # The work is deterministic and the host only ever slows it, in
    # spells of seconds, so the fastest sweep is the steady figure ("the
    # min value gives a lower bound for how fast your machine can run
    # the given code snippet; higher values are typically caused by
    # other processes interfering", Python's ``timeit`` docs).
    while True:
        t0 = time.perf_counter()
        wall, runs = _sweep(trace, ctx)
        walls.append(wall)
        if first:
            _check_repeat(ctx, first, runs)
        else:
            first = runs
        setup_s += [_setup(ctx.seed)[0] for _ in range(SETUPS_PER_SWEEP)]
        # Free this iteration's cyclic garbage now, not whenever the
        # collector next runs, so the peak RSS does not depend on when.
        gc.collect()
        iteration_s.append(time.perf_counter() - t0)
        if (
            not window.fits(median(iteration_s) / 2)
            and len(walls) >= MIN_ITERATIONS
        ):
            break
    _check_first(ctx, trace, first)
    _check_reference(ctx, trace, assignments, first)
    fn_min = len(POLICIES) * N_ASSIGNMENTS * trace.n_functions * trace.horizon
    metrics = {
        "setup_s": median(setup_s),
        "sim_fn_min_per_s": fn_min / min(walls),
        "peak_rss_mb": peak_rss_mb(),
        **quality(first["openwhisk"], first["pulse"]),
    }
    record = {
        "inputs": _provenance(ctx, trace),
        "samples": {"sweep_wall_s": walls, "setup_s": setup_s,
                    "iteration_s": iteration_s},
        "guards": guards([r for n in POLICIES for r in first[n]]),
    }
    return Outcome(metrics, record)


def _run_traced(ctx) -> Outcome:
    tracer = Tracer()
    labels = {type(make_policy(n)).__name__: n for n in POLICIES}
    with tracer.span("paper-sweep", rid="setup"):
        _, trace, assignments = _setup(ctx.seed, tracer)
    _warm_up(ctx.seed)
    _, first = _sweep(trace, ctx)
    n_sweeps = 1
    walls: dict[bool, list[float]] = {False: [], True: []}
    window = Window(ctx.seconds)
    # Traced and untraced sweeps alternate, so the tracing overhead
    # compares sweeps made under the same host conditions.
    for traced in itertools.cycle((True, False)):
        if not traced:
            wall, runs = _sweep(trace, ctx)
        else:
            _install(tracer, labels)
            try:
                with tracer.span("paper-sweep", rid=f"sweep-{n_sweeps}"):
                    with tracer.span("experiments.runner"):
                        wall, runs = _sweep(trace, ctx)
            finally:
                tracer.unwrap_all()
        walls[traced].append(wall)
        _check_repeat(ctx, first, runs)
        n_sweeps += 1
        if not traced and not window.fits(2 * median(walls[True])):
            break
    with tracer.span("paper-sweep", rid="check"):
        with tracer.span("runtime.run.reference"):
            _check_reference(ctx, trace, assignments, first)
    _check_first(ctx, trace, first)

    runner_self = [
        tracer.self_time(s) for s in tracer.by_name("experiments.runner")
    ]
    run_ow = median(tracer.durations("runtime.run.openwhisk"))
    run_pu = median(tracer.durations("runtime.run.pulse"))
    self_times = tracer.self_times()
    metrics = {
        "traces.generate_s": median(tracer.durations("traces.generate")),
        "runtime.open_s": median(tracer.durations("runtime.open")),
        "runtime.run_openwhisk_s": run_ow,
        "runtime.run_pulse_s": run_pu,
        "core.pulse_extra_s": run_pu - run_ow,
        "experiments.runner.overhead_s": median(runner_self),
        **guards([r for n in POLICIES for r in first[n]]),
        **active_shares(trace.counts),
        "obs.tracing_overhead_pct": 100.0
        * (median(walls[True]) / median(walls[False]) - 1),
        "bench.traced_total_s": tracer.total(),
        "bench.unattributed_s": self_times.get("unattributed", 0.0),
    }
    record = {
        "inputs": _provenance(ctx, trace),
        "self_times_s": self_times,
        "samples": {"traced_sweep_wall_s": walls[True],
                    "untraced_sweep_wall_s": walls[False]},
    }
    ctx.tracer = tracer
    return Outcome(metrics, record)
