"""Workload ``fleet-10k``: the columnar fleet kernel at 10,000 functions.

Input: a 10,000-function synthetic trace over 240 minutes and a
balanced assignment, both generated from ``--seed``.

Drive: ``repro.api.simulate(engine="fleet")`` with the default single
shard, for ``openwhisk`` and ``pulse``, observability off, under the
lean fleet configuration (no container pool, no event log, no per-minute
series: the configuration the fleet engine is built for). After an
untimed set-up and warm-up, iterations repeat until the window is spent
(three at the least); one iteration is a timed set-up and a timed
(openwhisk, pulse) ``simulate()`` pair. Throughput is over the fastest
``simulate()`` of each policy (see ``paper_sweep.run``) and set-up time
is the median. Every repeat must reproduce the first.

The traced run also steps ``pulse`` minute by minute through
``ControlSession.advance`` with the engine's own span tree on
(``ObservabilityConfig(spans=True, metrics=False, decisions=False)``);
that session must give the same summary as the untraced ``simulate()``.
"""

from __future__ import annotations

import gc
import time

from common import (
    Outcome,
    Window,
    active_shares,
    guards,
    median,
    peak_rss_mb,
    percentile,
    quality,
    summary_diff,
)
from tracing import Tracer, maybe_span

from repro.api import simulate
from repro.experiments.assignments import sample_assignment
from repro.obs.session import ObservabilityConfig
from repro.runtime.simulator import SimulationConfig
from repro.serve.session import open_session
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

N_FUNCTIONS = 10_000
HORIZON = 240
POLICIES = ["openwhisk", "pulse"]
#: Iterations at the least, so the fastest run is a choice among
#: several.
MIN_ITERATIONS = 3
CONFIG = SimulationConfig(
    record_series=False, track_containers=False, record_events=False
)
SPANS_ONLY = ObservabilityConfig(spans=True, metrics=False, decisions=False)

#: Fleet engine span names (``SpanTimer`` phases, shard prefix
#: stripped) -> per-layer metric names.
FLEET_SPANS = {
    "serve": "runtime.fleet.shard_serve_ms",
    "observe": "runtime.fleet.shard_observe_ms",
    "plan": "runtime.fleet.shard_plan_ms",
    "reduce/peak-flatten": "runtime.fleet.reduce_peak_flatten_ms",
    "reduce/downgrade": "runtime.fleet.reduce_downgrade_ms",
    "reduce/valve": "runtime.fleet.reduce_valve_ms",
}


def _open(trace, assignment, policy, observe=None):
    return open_session(
        trace, policy=policy, assignment=assignment, engine="fleet",
        config=CONFIG, observe=observe,
    )


def _setup(seed: int, tracer: Tracer | None = None):
    """One set-up: trace, assignment, one fleet session open per
    policy. Returns (seconds, trace, assignment)."""
    t0 = time.perf_counter()
    cfg = SyntheticTraceConfig(
        seed=seed, n_functions=N_FUNCTIONS, horizon_minutes=HORIZON
    )
    with maybe_span(tracer, "traces.generate"):
        trace = generate_trace(cfg)
    assignment = sample_assignment(N_FUNCTIONS, seed=seed)
    for name in POLICIES:
        with maybe_span(tracer, "runtime.open"):
            _open(trace, assignment, name)
    return time.perf_counter() - t0, trace, assignment


def _warm_up(seed: int) -> None:
    """Fill lazy imports and first-call caches of the timed set-up and
    runs."""
    _setup(seed)
    small = generate_trace(
        SyntheticTraceConfig(seed=seed, n_functions=500, horizon_minutes=30)
    )
    a = sample_assignment(500, seed=seed)
    for name in POLICIES:
        simulate(small, assignment=a, policy=name, engine="fleet",
                 config=CONFIG)


def _simulate(ctx, trace, assignment, policy):
    """One timed ``simulate()``; returns (seconds, RunResult or None)."""
    t0 = time.perf_counter()
    try:
        result = simulate(
            trace, assignment=assignment, policy=policy, engine="fleet",
            config=CONFIG,
        )
    except Exception as exc:  # a crashed run is a failed operation
        ctx.tally.op(False, f"{policy}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None
    ctx.tally.op(True)
    return time.perf_counter() - t0, result


def _check_first(ctx, trace, first: dict) -> None:
    expected = int(trace.counts.sum())
    for name in POLICIES:
        ctx.tally.check(
            f"{name} invocations",
            [] if first[name].n_invocations == expected else ["n_invocations"],
        )


def _check_repeat(ctx, first: dict, later: dict) -> None:
    """A repeat pair must reproduce the first; it is dropped after."""
    for name in POLICIES:
        ctx.tally.check(
            f"repeat {name}",
            summary_diff(first[name].summary(), later[name].summary()),
        )


def _provenance(ctx, trace) -> dict:
    return {
        "seed": ctx.seed,
        "n_functions": trace.n_functions,
        "horizon_minutes": trace.horizon,
        "shards": 1,
        "policies": POLICIES,
        "invocations": int(trace.counts.sum()),
        **active_shares(trace.counts),
    }


def run(ctx) -> Outcome:
    if ctx.trace:
        return _run_traced(ctx)
    _warm_up(ctx.seed)
    window = Window(ctx.seconds)
    setup_s: list[float] = []
    iteration_s: list[float] = []
    times: dict[str, list[float]] = {name: [] for name in POLICIES}
    first: dict = {}
    n_pairs = 0
    while True:
        t0 = time.perf_counter()
        dt, trace, assignment = _setup(ctx.seed)
        setup_s.append(dt)
        pair = {}
        for name in POLICIES:
            dt, pair[name] = _simulate(ctx, trace, assignment, name)
            times[name].append(dt)
        if any(r is None for r in pair.values()):
            break
        if first:
            _check_repeat(ctx, first, pair)
        else:
            first = pair
        n_pairs += 1
        # Free this iteration's cyclic garbage now, not whenever the
        # collector next runs, so the peak RSS does not depend on when.
        gc.collect()
        iteration_s.append(time.perf_counter() - t0)
        if (
            not window.fits(median(iteration_s) / 2)
            and n_pairs >= MIN_ITERATIONS
        ):
            break
    if not first:
        return Outcome({}, {"inputs": _provenance(ctx, trace)})
    _check_first(ctx, trace, first)
    pair_s = sum(min(times[name][:n_pairs]) for name in POLICIES)
    metrics = {
        "setup_s": median(setup_s),
        "sim_fn_min_per_s": len(POLICIES) * N_FUNCTIONS * HORIZON / pair_s,
        "peak_rss_mb": peak_rss_mb(),
        **quality([first["openwhisk"]], [first["pulse"]]),
    }
    record = {
        "inputs": _provenance(ctx, trace),
        "samples": {f"{k}_s": v for k, v in times.items()}
        | {"setup_s": setup_s, "iteration_s": iteration_s},
        "guards": guards(list(first.values())),
    }
    return Outcome(metrics, record)


def _traced_session(tracer, trace, assignment):
    """``pulse`` stepped per minute with the engine's spans on."""
    with tracer.span("runtime.open"):
        session = _open(trace, assignment, "pulse", observe=SPANS_ONLY)
    for minute in range(HORIZON):
        with tracer.span("runtime.fleet.step", rid=minute):
            session.advance()
    with tracer.span("runtime.result"):
        return session.result()


def _run_traced(ctx) -> Outcome:
    tracer = Tracer()
    with tracer.span("fleet-10k", rid="setup"):
        _, trace, assignment = _setup(ctx.seed, tracer)
    _warm_up(ctx.seed)
    window = Window(ctx.seconds)
    sessions = []
    session_s: list[float] = []
    simulate_s: dict[str, list[float]] = {name: [] for name in POLICIES}
    pairs: list[dict] = []
    while True:
        with tracer.span("fleet-10k", rid=f"iteration-{len(pairs)}"):
            pair = {}
            for name in POLICIES:
                with tracer.span(f"runtime.run.{name}") as span:
                    _, pair[name] = _simulate(ctx, trace, assignment, name)
                simulate_s[name].append(span.duration)
            with tracer.span("runtime.session.pulse") as span:
                sessions.append(_traced_session(tracer, trace, assignment))
            session_s.append(span.duration)
        if any(r is None for r in pair.values()):
            break
        pairs.append(pair)
        iteration_s = median(session_s) + sum(
            median(v) for v in simulate_s.values()
        )
        if not window.fits(iteration_s):
            break
    if not pairs:
        return Outcome({}, {"inputs": _provenance(ctx, trace)})
    _check_first(ctx, trace, pairs[0])
    for later in pairs[1:]:
        _check_repeat(ctx, pairs[0], later)
    for i, result in enumerate(sessions):
        ctx.tally.check(
            f"traced session {i} vs simulate()",
            summary_diff(pairs[0]["pulse"].summary(), result.summary()),
        )

    steps = tracer.durations("runtime.fleet.step")
    engine = {name: 0.0 for name in FLEET_SPANS.values()}
    for result in sessions:
        for phase, acc in result.obs.spans.as_dict().items():
            key = phase.split("/", 1)[1] if phase.startswith("shard-") else phase
            if key in FLEET_SPANS:
                engine[FLEET_SPANS[key]] += acc["seconds"]
    minutes = HORIZON * len(sessions)
    per_minute = {k: 1e3 * v / minutes for k, v in engine.items()}
    run_ow = median(simulate_s["openwhisk"])
    run_pu = median(simulate_s["pulse"])
    self_times = tracer.self_times()
    metrics = {
        "traces.generate_s": median(tracer.durations("traces.generate")),
        "runtime.open_s": median(tracer.durations("runtime.open")),
        "runtime.run_openwhisk_s": run_ow,
        "runtime.run_pulse_s": run_pu,
        "core.pulse_extra_s": run_pu - run_ow,
        **per_minute,
        "runtime.fleet.unattributed_ms": 1e3 * sum(steps) / minutes
        - sum(per_minute.values()),
        "runtime.fleet.step_p50_ms": 1e3 * percentile(steps, 50),
        "runtime.fleet.step_p95_ms": 1e3 * percentile(steps, 95),
        **guards(list(pairs[0].values())),
        **active_shares(trace.counts),
        "obs.tracing_overhead_pct": 100.0 * (median(session_s) / run_pu - 1),
        "bench.traced_total_s": tracer.total(),
        "bench.unattributed_s": self_times.get("unattributed", 0.0),
    }
    record = {
        "inputs": _provenance(ctx, trace),
        "self_times_s": self_times,
        "engine_span_tree": sessions[0].obs.spans.tree(),
        "samples": {"session_s": session_s}
        | {f"run_{k}_s": v for k, v in simulate_s.items()},
    }
    ctx.tracer = tracer
    return Outcome(metrics, record)
