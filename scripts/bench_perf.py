#!/usr/bin/env python3
"""Engine performance benchmark: reference loop vs fleet kernel.

Times observed vs unobserved PULSE runs on the default 2-day synthetic
trace in the lean engine configuration (``record_series=False``), plus
sweep throughput through ``run_policies`` at ``n_jobs`` in {1, 4}, plus
the **fleet scaling curve**: PULSE runs at 12 / 1k / 10k / 100k functions per
engine, each in its own subprocess so the reported peak RSS belongs to
that point alone. Writes ``BENCH_perf.json``.

Methodology
-----------
Wall-clock noise on runs this short (~10-50 ms) is large, so each
(unobserved, observed) pair is timed *interleaved* (off on off on ...)
with the GC suspended around each sample, and both best-of-N (min) and
median are reported; the overhead headline uses the min, the
least-noise-contaminated estimate (see ``repro.utils.profiling``).
Scaling-curve points run for seconds-to-minutes, where a single sample
is noise-safe; trace generation happens before the timer starts but
inside the subprocess, so peak RSS covers the whole working set.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py            # full, ~10 min
    PYTHONPATH=src python scripts/bench_perf.py --quick    # CI smoke

CI perf-smoke gates (all optional flags)::

    --gate-1k-seconds 120     fail if the 1k-function fleet point is slower
    --baseline scripts/perf_baseline.json --max-regression 0.2
                              fail if the machine-normalized 1k fleet
                              throughput (vs the run's own 12-fn reference
                              calibration sample) regressed >20% against
                              the committed --quick report; the verdict
                              prints both ratios and the calibration's
                              per-repeat times
    --gate-obs-overhead 0.10  fail if fleet observability (columnar
                              FleetObsSession, sampled traces, spans)
                              costs more than 10% of obs-off throughput
                              at the largest measured fleet size; the
                              verdict prints each round's overhead and
                              their quartile spread
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace

from repro.core.pulse import PulsePolicy
from repro.baselines.openwhisk import OpenWhiskPolicy
from repro.baselines.static import AllLowQualityPolicy
from repro.experiments.assignments import sample_assignment
from repro.experiments.runner import ExperimentConfig, run_policies
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import MINUTES_PER_DAY
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.utils.profiling import interleaved_best_of
from repro.utils.atomicio import atomic_write_json

SEED = 2024

POLICIES = {
    "fixed-highest": OpenWhiskPolicy,
    "fixed-lowest": AllLowQualityPolicy,
    "pulse": PulsePolicy,
}


def bench_observability(trace, assignment, repeats: int) -> dict:
    """Observed vs unobserved PULSE runs on the reference loop.

    The disabled path must be free (``observe=None`` leaves only
    ``is not None`` tests in the hot loops), so the
    ``overhead_enabled`` ratio is the full price of recording every
    decision, metric and span.
    """
    lean = SimulationConfig(record_series=False)

    def run(observe: bool) -> None:
        cfg = replace(lean, observe=observe)
        Simulation(trace, assignment, PulsePolicy(), cfg).run(
            engine="reference"
        )

    off_t, on_t = interleaved_best_of(
        [lambda: run(False), lambda: run(True)], repeats=repeats
    )
    out = {
        "unobserved": off_t.as_dict(),
        "observed": on_t.as_dict(),
        "overhead_enabled_best": on_t.best / off_t.best - 1.0,
        "overhead_enabled_median": on_t.median / off_t.median - 1.0,
    }
    print(
        f"observability    off {off_t.best * 1e3:7.2f} ms   "
        f"on {on_t.best * 1e3:7.2f} ms   "
        f"enabled overhead {out['overhead_enabled_best'] * 100:+.1f}% (min) "
        f"{out['overhead_enabled_median'] * 100:+.1f}% (med)"
    )
    return out


def bench_sweep(trace, n_runs: int, repeats: int) -> dict:
    """Sweep throughput (runs/s) through run_policies at n_jobs 1 and 4."""
    out = {}
    for n_jobs in (1, 4):
        cfg = ExperimentConfig(
            n_runs=n_runs,
            horizon_minutes=trace.horizon,
            seed=SEED,
            n_jobs=n_jobs,
            sim=SimulationConfig(record_series=False),
            engine="reference",
        )

        def sweep() -> None:
            run_policies(trace, dict(POLICIES), cfg)

        (t,) = interleaved_best_of([sweep], repeats=repeats, warmup=0)
        total_runs = n_runs * len(POLICIES)
        out[f"n_jobs={n_jobs}"] = {
            **t.as_dict(),
            "total_runs": total_runs,
            "runs_per_s": total_runs / t.best,
        }
        print(
            f"sweep n_jobs={n_jobs}: {total_runs} runs in {t.best:.2f} s "
            f"({total_runs / t.best:.1f} runs/s)"
        )
    return out


# The fleet scaling curve: (n_functions, horizon_minutes, engines).
# Horizons shrink as fleets grow so every point (including the slowest
# engine at it) finishes in minutes; throughput is reported as
# function-minutes simulated per second, which is size-comparable.
# The 1k point is identical in quick and full mode so the CI smoke can
# regression-gate against the committed full-mode baseline.
SCALING_POINTS = [
    (12, 1440, ("reference", "fleet")),
    (1_000, 240, ("reference", "fleet")),
    (10_000, 120, ("reference", "fleet")),
    (100_000, 120, ("fleet",)),
]
QUICK_SCALING_POINTS = [
    # Same horizons as the full-mode points so the 12-fn reference
    # sample can serve as a machine-speed calibration against the
    # committed baseline (see the --baseline gate).
    (12, 1440, ("reference", "fleet")),
    (1_000, 240, ("fleet",)),
]
# Obs-overhead points: fleet-engine obs-on vs obs-off at these
# (n_functions, horizon_minutes) sizes; quick mode keeps only the first,
# so 10k leads — that is the size the overhead budget is stated at (the
# fixed per-minute obs cost amortizes with fleet size, so smaller fleets
# over-state the relative overhead).
# ``trace_sample`` sampled fids carry full decision traces, matching the
# documented fleet observability configuration rather than a toy one.
OBS_OVERHEAD_POINTS = [(10_000, 120), (1_000, 240)]
OBS_TRACE_SAMPLE = 8
# A scaling point that cannot finish inside this budget is recorded as a
# DNF instead of stalling the whole bench (the reference loop does
# Python work per function per minute, so at 10k+ functions it may not
# come back in reasonable time -- which is the very gap the fleet engine
# closes). A DNF by `reference` turns the fleet speedup into a lower
# bound.
PER_POINT_TIMEOUT_S = 900.0


def run_point(
    n: int, horizon: int, engine: str, repeats: int, obs: bool = False,
) -> None:
    """Child-process mode: one PULSE run at one scaling point; prints a
    JSON line with its best-of-``repeats`` wall time and this process's
    peak RSS. Repeats are only used at small n, where a single run is in
    noise territory. With ``obs`` the run carries a full observability
    session (fleet: the columnar ``FleetObsSession`` with
    ``OBS_TRACE_SAMPLE`` sampled decision traces) — the configuration
    the obs-overhead gate compares against obs-off."""
    import resource
    import time

    from repro.obs.session import ObservabilityConfig

    trace = generate_trace(
        SyntheticTraceConfig(horizon_minutes=horizon, seed=SEED, n_functions=n)
    )
    assignment = sample_assignment(n, seed=SEED)
    lean = SimulationConfig(
        record_series=False,
        observe=(
            ObservabilityConfig(trace_sample=OBS_TRACE_SAMPLE) if obs else None
        ),
    )
    repeat_seconds = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        Simulation(trace, assignment, PulsePolicy(), lean).run(engine=engine)
        repeat_seconds.append(time.perf_counter() - t0)
    seconds = min(repeat_seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(
        json.dumps(
            {
                "seconds": seconds,
                "repeat_seconds": repeat_seconds,
                "minutes_per_s": horizon / seconds,
                "fn_minutes_per_s": n * horizon / seconds,
                "peak_rss_mb": rss_kb / 1024.0,
            }
        )
    )


def bench_fleet_scaling(quick: bool) -> dict:
    """Run every scaling point in a fresh subprocess and collect the curve."""
    points = []
    for n, horizon, engines in (QUICK_SCALING_POINTS if quick else SCALING_POINTS):
        entry: dict = {
            "n_functions": n,
            "horizon_minutes": horizon,
            "engines": {},
        }
        for engine in engines:
            # Best-of-3 where a single run sits in noise territory
            # (sub-second samples feed the CI regression gate); one run
            # is plenty once a point takes tens of seconds.
            repeats = 3 if n <= 12 or (engine == "fleet" and n <= 1_000) else 1
            try:
                proc = subprocess.run(
                    [
                        sys.executable, os.path.abspath(__file__), "--point",
                        str(n), str(horizon), engine, str(repeats), "off",
                    ],
                    capture_output=True,
                    text=True,
                    check=True,
                    timeout=PER_POINT_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                entry["engines"][engine] = {
                    "dnf": True,
                    "timeout_s": PER_POINT_TIMEOUT_S,
                }
                print(
                    f"scaling n={n:>6} h={horizon:>4} {engine:9s} "
                    f"DNF (>{PER_POINT_TIMEOUT_S:.0f} s)"
                )
                continue
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
            entry["engines"][engine] = sample
            print(
                f"scaling n={n:>6} h={horizon:>4} {engine:9s} "
                f"{sample['seconds']:8.2f} s  "
                f"{sample['fn_minutes_per_s']:>12,.0f} fn-min/s  "
                f"rss {sample['peak_rss_mb']:8.1f} MB"
            )
        ref = entry["engines"].get("reference")
        fleet = entry["engines"].get("fleet")
        if ref and fleet and "seconds" in fleet:
            if "seconds" in ref:
                entry["speedup_fleet_vs_reference"] = (
                    ref["seconds"] / fleet["seconds"]
                )
            else:  # reference DNF: report the timeout-derived lower bound
                entry["speedup_fleet_vs_reference"] = (
                    ref["timeout_s"] / fleet["seconds"]
                )
                entry["speedup_is_lower_bound"] = True
        points.append(entry)
    return {
        "policy": "pulse",
        "note": (
            "fleet is SLOWER than reference below the crossover at 12 "
            "functions: the columnar kernel pays fixed per-minute vector "
            "overhead that only amortizes with fleet size. Expected — use "
            "reference (or auto) for small fleets, fleet for large ones."
        ),
        "points": points,
    }


def bench_fleet_obs_overhead(quick: bool) -> dict:
    """Fleet throughput with observability on vs off, per fleet size.

    Each (size, mode) runs in its own subprocess (clean RSS, no shared
    allocator warmth); rounds alternate off-first / on-first so both
    slow machine drift and within-pair bias (the second run of a pair
    tends to land on a cooler clock) contaminate both sides equally. The headline ``overhead``
    (what ``--gate-obs-overhead`` checks) compares the *medians* — on
    noisy shared runners a single anomalously fast sample on one side
    skews a best-of ratio by tens of percent, while the median of
    alternating rounds cancels drift; the best-of ratio is still
    reported as ``overhead_best``, and each round's own on/off ratio as
    ``round_overheads`` with its quartiles, so a gate verdict shows
    whether noise alone spans the bound.
    """
    import statistics

    points = OBS_OVERHEAD_POINTS[:1] if quick else OBS_OVERHEAD_POINTS
    out: dict = {
        "engine": "fleet",
        "trace_sample": OBS_TRACE_SAMPLE,
        "points": [],
    }
    for n, horizon in points:
        # Sub-second samples need several alternating rounds before the
        # median stabilizes; tens-of-seconds points need fewer.
        rounds = 7 if n <= 1_000 else 3
        seconds: dict[str, list[float]] = {"off": [], "on": []}
        samples: dict[str, dict] = {}
        for r in range(rounds):
            order = ("off", "on") if r % 2 == 0 else ("on", "off")
            for mode in order:
                proc = subprocess.run(
                    [
                        sys.executable, os.path.abspath(__file__), "--point",
                        str(n), str(horizon), "fleet", "1", mode,
                    ],
                    capture_output=True,
                    text=True,
                    check=True,
                    timeout=PER_POINT_TIMEOUT_S,
                )
                sample = json.loads(proc.stdout.strip().splitlines()[-1])
                if not seconds[mode] or sample["seconds"] < min(seconds[mode]):
                    samples[mode] = sample
                seconds[mode].append(sample["seconds"])
        med = {m: statistics.median(s) for m, s in seconds.items()}
        overhead = med["on"] / med["off"] - 1.0
        # Per-round overheads (each round's on/off pair) and their
        # quartiles show how much of the headline is noise.
        rounds_overhead = [
            on / off - 1.0 for on, off in zip(seconds["on"], seconds["off"])
        ]
        q1, _, q3 = statistics.quantiles(rounds_overhead, n=4)
        entry = {
            "n_functions": n,
            "horizon_minutes": horizon,
            "obs_off": samples["off"],
            "obs_on": samples["on"],
            "median_off_s": med["off"],
            "median_on_s": med["on"],
            "overhead": overhead,
            "overhead_best": (
                min(seconds["on"]) / min(seconds["off"]) - 1.0
            ),
            "round_overheads": rounds_overhead,
            "round_overhead_q1": q1,
            "round_overhead_q3": q3,
        }
        out["points"].append(entry)
        print(
            f"obs-overhead n={n:>6} h={horizon:>4} fleet  "
            f"off {med['off']:7.2f} s  on {med['on']:7.2f} s (median)  "
            f"overhead {overhead * 100:+.1f}%"
        )
    return out


def bench_lint() -> dict:
    """One cold ``repro lint`` pass over the shipped tree."""
    import time
    from pathlib import Path

    from repro import analysis

    target = Path(__file__).resolve().parent.parent / "src" / "repro"
    t0 = time.perf_counter()
    report = analysis.lint_paths([target])
    cold_s = time.perf_counter() - t0
    out = {
        "target": "src/repro",
        "n_files": report.n_files,
        "rules": report.rule_ids,
        "cold_s": cold_s,
    }
    print(
        f"lint             cold {cold_s * 1e3:7.0f} ms   "
        f"{report.n_files} files, {len(report.rule_ids)} rules"
    )
    return out


def _scaling_point(report: dict, n: int, engine: str) -> dict | None:
    for point in report.get("fleet_scaling", {}).get("points", []):
        if point["n_functions"] == n and engine in point["engines"]:
            return point["engines"][engine]
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: fewer repeats, shorter trace, skip the sweep, "
        "scaling curve only up to 1k functions",
    )
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument(
        "--point",
        nargs=5,
        metavar=("N", "HORIZON", "ENGINE", "REPEATS", "OBS"),
        help=argparse.SUPPRESS,  # internal: scaling-point child process
    )
    parser.add_argument(
        "--gate-1k-seconds",
        type=float,
        default=None,
        help="fail if the 1k-function fleet scaling point took longer",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed bench report (scripts/perf_baseline.json) to "
        "regression-gate the 1k fleet throughput against "
        "(machine-normalized, see --max-regression)",
    )
    parser.add_argument(
        "--gate-obs-overhead",
        type=float,
        default=None,
        help="fail if fleet obs-on throughput trails obs-off by more than "
        "this fraction at the largest measured fleet size (CI: 0.10); "
        "the verdict prints each round's overhead and their quartiles",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.2,
        help="allowed fractional drop of the machine-normalized 1k-fleet "
        "throughput (1k fleet fn-min/s divided by the same run's 12-fn "
        "reference sample, so a uniformly slower CI runner cancels out) "
        "vs --baseline",
    )
    args = parser.parse_args()

    if args.point is not None:
        n, horizon, engine, point_repeats, obs = args.point
        run_point(
            int(n), int(horizon), engine, int(point_repeats),
            obs=(obs == "on"),
        )
        return

    # Read the baseline before benching, so a missing file fails fast.
    baseline = None
    if args.baseline is not None:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            raise SystemExit(
                f"--baseline file {args.baseline} does not exist; regenerate "
                "it with: PYTHONPATH=src python scripts/bench_perf.py "
                f"--quick --out {args.baseline}"
            ) from None

    horizon = (MINUTES_PER_DAY // 2) if args.quick else 2 * MINUTES_PER_DAY
    repeats = 3 if args.quick else 7
    trace = generate_trace(
        SyntheticTraceConfig(horizon_minutes=horizon, seed=SEED)
    )
    assignment = sample_assignment(trace.n_functions, seed=SEED)
    print(
        f"trace: {trace.n_functions} functions x {trace.horizon} minutes, "
        f"{trace.total_invocations()} invocations"
    )

    report = {
        "config": {
            "horizon_minutes": horizon,
            "seed": SEED,
            "repeats": repeats,
            "quick": args.quick,
            "engine": "record_series=False",
            "platform": platform.platform(),
            "python": platform.python_version(),
            # Interpret the sweep scaling against this: n_jobs > cpus
            # cannot beat serial.
            "cpus": os.cpu_count(),
        },
        "methodology": (
            "interleaved unobserved/observed timing, GC suspended around "
            "each sample, best-of-N (min) and median reported; headline "
            "overhead uses the min"
        ),
        "observability": bench_observability(trace, assignment, repeats),
        "sweep": (
            {} if args.quick else bench_sweep(trace, n_runs=24, repeats=2)
        ),
        "fleet_scaling": bench_fleet_scaling(args.quick),
        "fleet_observability": bench_fleet_obs_overhead(args.quick),
        "lint": bench_lint(),
    }

    atomic_write_json(args.out, report)
    print(f"wrote {args.out}")

    if args.gate_1k_seconds is not None:
        sample = _scaling_point(report, 1_000, "fleet")
        if sample is None:
            raise SystemExit("no 1k fleet scaling point to gate on")
        if sample["seconds"] > args.gate_1k_seconds:
            raise SystemExit(
                f"1k-function fleet point took {sample['seconds']:.1f} s, "
                f"over the {args.gate_1k_seconds:.1f} s gate"
            )
    if args.gate_obs_overhead is not None:
        points = report["fleet_observability"]["points"]
        if not points:
            raise SystemExit("no fleet obs-overhead points to gate on")
        # The budget is stated at fleet scale, so the gate checks the
        # largest measured fleet; smaller points are informational (the
        # per-minute obs cost is fixed, so their relative overhead is
        # structurally higher).
        point = max(points, key=lambda p: p["n_functions"])
        over = point["overhead"] > args.gate_obs_overhead
        rounds = " ".join(f"{o:+.1%}" for o in point["round_overheads"])
        q1, q3 = point["round_overhead_q1"], point["round_overhead_q3"]
        verdict = (
            f"fleet observability overhead at {point['n_functions']} "
            f"functions is {point['overhead']:+.1%} (median of rounds' "
            f"times), {'over' if over else 'within'} the "
            f"{args.gate_obs_overhead:.0%} gate; per-round overheads "
            f"{rounds}, quartiles {q1:+.1%}..{q3:+.1%} "
            f"(spread {(q3 - q1) * 100:.1f} pp)"
        )
        if over:
            raise SystemExit(verdict)
        print(verdict)
    if baseline is not None:
        # Absolute fn-min/s are not comparable across machines (CI
        # runners are slower than wherever the baseline was produced),
        # so both sides are normalized by their own 12-fn reference sample —
        # a same-process calibration of raw single-core speed. Both
        # modes run that point at the same horizon for this reason.
        ratios, calibrations = [], []
        for name, rep in (("baseline", baseline), ("current", report)):
            fleet_1k = _scaling_point(rep, 1_000, "fleet")
            ref_12 = _scaling_point(rep, 12, "reference")
            if fleet_1k is None or ref_12 is None:
                raise SystemExit(
                    f"{name} report lacks the 1k fleet or 12-fn reference "
                    "point"
                )
            ratios.append(
                fleet_1k["fn_minutes_per_s"] / ref_12["fn_minutes_per_s"]
            )
            # Reports written before per-repeat times were kept carry
            # only the best-of.
            times = ref_12.get("repeat_seconds")
            calibrations.append(
                " ".join(f"{t:.3f}" for t in times)
                if times
                else f"best-of {ref_12['seconds']:.3f}"
            )
        base_ratio, our_ratio = ratios
        over = our_ratio < base_ratio * (1.0 - args.max_regression)
        verdict = (
            f"1k fleet normalized throughput x{our_ratio:.2f} vs baseline "
            f"x{base_ratio:.2f} ({our_ratio / base_ratio - 1.0:+.1%}), "
            f"{'FAILS' if over else 'passes'} the {args.max_regression:.0%} "
            "regression gate; 12-fn reference calibration per-repeat "
            f"times: baseline {calibrations[0]} s, current "
            f"{calibrations[1]} s"
        )
        if over:
            raise SystemExit(verdict)
        print(verdict)

    if not args.quick:
        # Timing gates live in full mode only — CI's --quick smoke runs
        # on noisy shared runners where wall-clock ratios flap.
        for point in report["fleet_scaling"]["points"]:
            speedup = point.get("speedup_fleet_vs_reference")
            if point["n_functions"] == 10_000 and speedup is not None:
                if speedup < 10.0:
                    raise SystemExit(
                        f"fleet speedup over the reference loop at 10k "
                        f"functions is x{speedup:.1f}, below the x10 target"
                    )


if __name__ == "__main__":
    main()
