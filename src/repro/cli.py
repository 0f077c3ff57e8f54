"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``   run one or more keep-alive policies over the synthetic
               trace (or loaded Azure CSVs) and print the headline table;
``inspect``    answer why-questions against a JSONL decision trace;
``profile``    run the simulated Lambda profiling campaign (Table I);
``trace``      generate / summarize a workload trace, optionally export
               it as Azure-schema CSVs;
``reproduce``  run one paper experiment by id (table1, fig1 … fig12,
               tables2-3, ablations) at a chosen scale and print it;
``resilience`` sweep fault intensities and compare policy degradation;
``sweep``      run a durable multi-policy sweep (per-run worker
               processes, timeouts, retries, checkpoints, a crash-safe
               manifest) — resumable with ``--resume MANIFEST``;
``report``     run every experiment and write a markdown report;
``figures``    render the paper figures as SVGs.

Policy names resolve through :mod:`repro.api`'s registry; the historical
module-level ``_POLICIES`` / ``_LONG_WINDOW_POLICIES`` /
``_parse_fid_minute`` are gone (their deprecation cycle ended —
accessing them raises :class:`AttributeError` naming the replacement).

There is also a ``serve`` command — the async control-plane service over
:mod:`repro.serve` sessions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.api import list_policies, make_policy, policy_spec, simulate
from repro.experiments import (
    ExperimentConfig,
    figure1_histograms,
    figure2_drift,
    figure4_and_7_memory,
    figure5_tradeoff,
    figure6_headline,
    figure8_integration,
    figure9_overhead,
    figure10_threshold_schemes,
    figure11_memory_thresholds,
    figure12_local_windows,
    table1_characterization,
    tables2_3_peak_strategies,
)
from repro.experiments.ablations import (
    peak_detector_ablation,
    scalability_study,
    utility_component_ablation,
)
from repro.experiments.assignments import sample_assignment
from repro.experiments.reporting import format_bar_chart, format_series, format_table
from repro.obs.session import ObservabilityConfig
from repro.runtime.simulator import SimulationConfig
from repro.traces.analysis import activity_summary, invocation_peaks
from repro.traces.azure import load_azure_csv, top_functions, write_azure_csv
from repro.traces.schema import Trace
from repro.utils.atomicio import atomic_write_text
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.utils.specs import (
    ENGINES,
    parse_choice_list,
    parse_fid_minute,
    parse_float_list,
    parse_optional_int,
    parse_scoped_fid_minute,
    resolve_paths,
)

__all__ = ["main"]

#: Removed pre-registry module attributes -> the replacement to name in
#: the error. The deprecation cycle (PR-3 shims: warn, then raise) is
#: complete; the table keeps the pointer messages one release longer.
_REMOVED_ATTRS = {
    "_POLICIES": "repro.api.list_policies() / repro.api.make_policy()",
    "_LONG_WINDOW_POLICIES": "repro.api.policy_spec(name).keep_alive_window",
    "_parse_fid_minute": "repro.utils.specs.parse_fid_minute",
}


def __getattr__(name: str):
    if name in _REMOVED_ATTRS:
        raise AttributeError(
            f"repro.cli.{name} was removed at the end of its deprecation "
            f"cycle; use {_REMOVED_ATTRS[name]} instead"
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_trace(args: argparse.Namespace) -> Trace:
    if getattr(args, "azure_csv", None):
        trace = load_azure_csv([Path(p) for p in args.azure_csv])
        return top_functions(trace, getattr(args, "functions", 12))
    n = getattr(args, "functions", 12)
    return generate_trace(
        SyntheticTraceConfig(
            horizon_minutes=args.horizon,
            seed=args.seed,
            # The generator's native mix is 12 functions; only ask it to
            # rescale when the user sized the fleet explicitly.
            n_functions=None if n == 12 else n,
        )
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    assignment = sample_assignment(trace.n_functions, seed=args.seed)
    trace_sample = getattr(args, "trace_sample", 0)
    observe: bool | ObservabilityConfig = bool(
        getattr(args, "observe", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "report_out", None)
        or getattr(args, "prom_out", None)
        or trace_sample
    )
    if observe and trace_sample:
        observe = ObservabilityConfig(trace_sample=trace_sample)
    dump_outs = (args.trace_out, args.report_out, args.prom_out)
    if any(dump_outs) and len(args.policies) != 1:
        print(
            "--trace-out/--report-out/--prom-out dump one run; pass "
            "exactly one policy",
            file=sys.stderr,
        )
        return 2
    rows = []
    for name in args.policies:
        try:
            spec = policy_spec(name)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        # Each policy runs at its own natural schedule capacity (10 for
        # the fixed-window policies and PULSE, 240 for the long-horizon
        # predictors) — sharing one capacity would silently change the
        # fixed policies' keep-alive duration.
        sim = SimulationConfig(
            keep_alive_window=spec.keep_alive_window, observe=observe
        )
        policy = make_policy(name, resilient=args.resilient)
        result = simulate(
            trace, assignment=assignment, policy=policy, config=sim,
            engine=args.engine, faults=args.faults,
        )
        row = result.summary()
        # Machine wall time, not a workload metric — printing it would
        # make the table nondeterministic across identical runs.
        row.pop("wall_clock_s", None)
        rows.append(row)
        if args.trace_out:
            from repro.obs.export import write_trace_jsonl

            n = write_trace_jsonl(result, args.trace_out)
            print(f"wrote {n} trace records to {args.trace_out}")
        if args.report_out:
            from repro.obs.report import save_run_report

            save_run_report(result, args.report_out)
            print(f"wrote run report to {args.report_out}")
        if args.prom_out:
            from repro.obs.export import write_prometheus

            n = write_prometheus(result.obs, args.prom_out)
            print(f"wrote {n} exposition lines to {args.prom_out}")
    print(format_table(rows, title=f"{trace!r}"))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs.inspect import TraceIndex

    try:
        index = TraceIndex.from_jsonl(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    queried = False
    if args.cold:
        fid, minute = parse_fid_minute(args.cold, "--cold")
        print(index.explain_cold(fid, minute))
        queried = True
    if args.plan:
        if queried:
            print()
        fid, minute = parse_fid_minute(args.plan, "--plan")
        print(index.explain_plan(fid, minute))
        queried = True
    if args.downgrades is not None:
        if queried:
            print()
        fid, minute = parse_scoped_fid_minute(args.downgrades, "--downgrades")
        print(index.explain_downgrades(fid, minute))
        queried = True
    if args.faults is not None:
        if queried:
            print()
        print(index.explain_faults(parse_optional_int(args.faults, "--faults")))
        queried = True
    if not queried:
        print(index.summary())
    return 0


def _changed_python_files() -> set[Path]:
    """Python files the git checkout has touched: tracked files modified
    vs HEAD plus untracked (non-ignored) files. A :class:`SpecError`
    when the working directory is not inside a git checkout."""
    import subprocess

    from repro.utils.specs import SpecError

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as exc:
        raise SpecError(
            "repro lint --changed needs to run inside a git checkout "
            f"(git rev-parse failed: {exc})"
        ) from exc
    out: set[Path] = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, cwd=top, capture_output=True, text=True, check=True
            )
        except subprocess.CalledProcessError as exc:
            raise SpecError(
                f"repro lint --changed: {' '.join(cmd)} failed: "
                f"{exc.stderr.strip() or exc}"
            ) from exc
        for line in proc.stdout.splitlines():
            if line.endswith(".py"):
                out.add((Path(top) / line).resolve())
    return out


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro import analysis

    default_target = Path(__file__).resolve().parent
    paths = resolve_paths(args.paths, "repro lint", default=default_target)
    rules = (
        parse_choice_list(args.rule, "--rule", analysis.rule_ids())
        if args.rule
        else None
    )
    files = list(analysis.iter_python_files(paths))
    if args.changed:
        changed = _changed_python_files()
        # Project-wide rules (engine parity, lock discipline, snapshot
        # schema) need their whole surface parsed even when only one
        # side of it changed.
        scope = set(analysis.project_scope_paths(files, rules))
        files = [
            f for f in files if f.resolve() in changed or f in scope
        ]
    cache = (
        analysis.LintCache(Path(args.cache_dir)) if args.cache_dir else None
    )
    report = analysis.run_lint(
        files, rule_ids=rules, cache=cache, jobs=args.jobs
    )
    if args.format == "json":
        print(analysis.render_json(report))
    elif args.format == "sarif":
        print(analysis.render_sarif(report))
    else:
        print(analysis.render_text(report))
    return report.exit_code


def _cmd_profile(args: argparse.Namespace) -> int:
    _, rows = table1_characterization(
        n_warm_samples=args.warm_samples, n_cold_samples=args.cold_samples,
        seed=args.seed,
    )
    print(format_table(rows, title="Table I: model-variant characterization"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    print(trace)
    print()
    print(format_table(activity_summary(trace), title="Per-function activity"))
    peaks = invocation_peaks(trace, n_peaks=2)
    totals = trace.total_per_minute()
    print()
    print(
        "Prominent invocation peaks: "
        + ", ".join(f"minute {m} ({totals[m]} invocations)" for m in peaks)
    )
    if args.export:
        paths = write_azure_csv(trace, Path(args.export))
        print(f"\nexported {len(paths)} Azure-schema day files to {args.export}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        n_runs=args.runs, horizon_minutes=args.horizon, seed=args.seed
    )
    trace = _load_trace(args)
    exp = args.experiment
    if exp == "table1":
        _, rows = table1_characterization(seed=args.seed)
        print(format_table(rows, title="Table I"))
    elif exp == "fig1":
        for name, h in figure1_histograms(trace).items():
            print(format_series(h, label=f"{name:24s}"))
    elif exp == "fig2":
        for label, h in figure2_drift(trace).items():
            print(format_series(h, label=f"{label:16s}"))
    elif exp == "tables2-3":
        assignment = sample_assignment(trace.n_functions, seed=args.seed)
        for name, rows in tables2_3_peak_strategies(trace, assignment).items():
            print(format_table([r.__dict__ for r in rows], title=name))
            print()
    elif exp in ("fig4", "fig7"):
        res = figure4_and_7_memory(config, trace)
        for label, r in res.items():
            print(
                format_series(r.memory_series_mb, label=f"{label:16s}"),
                f" acc={r.accuracy_percent:.2f}%",
            )
    elif exp == "fig5":
        points = figure5_tradeoff(config, trace)
        print(format_table([p.__dict__ for p in points], title="Figure 5"))
    elif exp == "fig6":
        res = figure6_headline(config, trace)
        print(format_bar_chart(res.improvements, unit="%"))
        print(format_series(res.openwhisk_cost_error, label="OpenWhisk err"))
        print(format_series(res.pulse_cost_error, label="PULSE err    "))
    elif exp == "fig8":
        for r in figure8_integration(config, trace):
            print(f"{r.technique}+PULSE vs {r.technique}:")
            print(
                format_bar_chart(
                    {
                        "accuracy": r.accuracy,
                        "keepalive_cost": r.keepalive_cost,
                        "service_time": r.service_time,
                    },
                    unit="%",
                )
            )
    elif exp == "fig9":
        res = figure9_overhead(config, trace)
        print(
            f"median overhead/service: PULSE "
            f"{float(np.median(res.pulse_overhead_ratio)):.2e}, MILP "
            f"{float(np.median(res.milp_overhead_ratio)):.2e} "
            f"({res.overhead_factor:.1f}x)"
        )
        print(
            f"accuracy: PULSE {res.pulse_accuracy:.2f}%, "
            f"MILP {res.milp_accuracy:.2f}%"
        )
    elif exp in ("fig10", "fig11", "fig12"):
        fn = {
            "fig10": figure10_threshold_schemes,
            "fig11": figure11_memory_thresholds,
            "fig12": figure12_local_windows,
        }[exp]
        print(format_table([p.__dict__ for p in fn(config, trace)], title=exp))
    elif exp == "capacity":
        from repro.experiments.capacity import memory_capacity_study

        points = memory_capacity_study(config=config, trace=trace)
        print(
            format_table(
                [p.__dict__ for p in points],
                title="Memory-capacity study (forced random downgrades)",
            )
        )
    elif exp == "ablations":
        print(
            format_table(
                [
                    {**{"label": r.label}, **r.extra,
                     "cost_usd": r.keepalive_cost_usd,
                     "accuracy": r.accuracy_percent}
                    for r in utility_component_ablation(config, trace)
                ],
                title="Utility-component ablation",
            )
        )
        print()
        print(
            format_table(
                [
                    {**{"label": r.label}, **r.extra,
                     "warm_fraction": r.warm_fraction}
                    for r in peak_detector_ablation(config)
                ],
                title="Peak-detector ablation (day-phase trace)",
            )
        )
        print()
        print(
            format_table(
                [{**{"label": r.label}, **r.extra} for r in scalability_study()],
                title="Scalability study",
            )
        )
    else:  # pragma: no cover - argparse choices guard this
        raise AssertionError(exp)
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.experiments.resilience import resilience_sweep

    rates = tuple(parse_float_list(args.rates, "--rates"))
    config = ExperimentConfig(
        n_runs=args.runs, horizon_minutes=args.horizon, seed=args.seed,
        engine=args.engine,
    )
    points = resilience_sweep(
        config=config,
        trace=_load_trace(args),
        policies=tuple(args.policies),
        fault_rates=rates,
        fault_seed=args.fault_seed,
        pressure_cap_mb=args.pressure_mb,
    )
    print(
        format_table(
            [p.__dict__ for p in points],
            title="Resilience sweep (crash-isolated policies under faults)",
        )
    )
    return 0


def _sweep_trace(source: dict, out_dir: Path):
    """Build (trace, ingest_report) from a manifest trace-source record."""
    from repro.traces.schema import IngestReport

    if source["kind"] == "azure":
        report = IngestReport()
        trace = load_azure_csv(
            [Path(p) for p in source["paths"]],
            mode=source["mode"],
            quarantine_path=(
                out_dir / "quarantine.jsonl"
                if source["mode"] == "lenient"
                else None
            ),
            report=report,
        )
        return top_functions(trace, source["functions"]), report
    return (
        generate_trace(
            SyntheticTraceConfig(
                horizon_minutes=source["horizon"], seed=source["seed"]
            )
        ),
        None,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import run_sweep
    from repro.experiments.durable import DurableSweepConfig
    from repro.experiments.manifest import RunManifest

    if args.resume:
        # Everything — policies, scale, trace source, durability knobs —
        # comes from the manifest; the executor re-verifies the trace and
        # config hashes before driving the remaining runs.
        manifest_path = Path(args.resume)
        try:
            manifest = RunManifest.load(manifest_path)
        except (OSError, ValueError) as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        sc = manifest.sweep_config
        out_dir = manifest_path.parent
        policies = list(sc["policies"])
        source = sc["trace_source"]
        durable_kw = dict(sc["durable"])
        n_jobs = sc["n_jobs"]
        resilient = sc["resilient"]
    else:
        if not args.out:
            print("sweep needs --out DIR (or --resume MANIFEST)", file=sys.stderr)
            return 2
        out_dir = Path(args.out)
        if (out_dir / "manifest.json").exists():
            print(
                f"{out_dir / 'manifest.json'} already exists; pass it to "
                "--resume to continue, or choose a fresh --out",
                file=sys.stderr,
            )
            return 2
        manifest = None
        policies = list(args.policies)
        if args.azure_csv:
            source = {
                "kind": "azure",
                "paths": [str(Path(p)) for p in args.azure_csv],
                "functions": args.functions,
                "mode": "lenient" if args.lenient else "strict",
            }
        else:
            source = {
                "kind": "synthetic",
                "horizon": args.horizon,
                "seed": args.seed,
            }
        durable_kw = {
            "timeout_s": args.timeout,
            "max_retries": args.retries,
            "checkpoint_every": args.checkpoint_every,
            "chaos": args.chaos,
        }
        n_jobs = args.jobs
        resilient = args.resilient

    trace, ingest = _sweep_trace(source, out_dir)
    if args.resume:
        config = ExperimentConfig(
            n_runs=sc["n_runs"], horizon_minutes=sc["horizon_minutes"],
            seed=sc["seed"], n_jobs=n_jobs, engine=sc["engine"],
        )
    else:
        config = ExperimentConfig(
            n_runs=args.runs, horizon_minutes=trace.horizon,
            seed=args.seed, n_jobs=n_jobs, engine=args.engine,
        )
    try:
        result = run_sweep(
            trace, policies=policies, config=config,
            durable=True,
            out_dir=out_dir,
            resume=str(manifest.path) if manifest is not None else None,
            durable_config=DurableSweepConfig(**durable_kw),
            ingest=ingest,
            resilient=resilient,
            sweep_config_extra={
                "trace_source": source,
                "n_jobs": n_jobs,
                "durable": durable_kw,
            },
        )
    except ValueError as exc:
        print(f"sweep refused: {exc}", file=sys.stderr)
        return 2
    summary = result.manifest.summary()
    print(
        "sweep {}: {done}/{runs} runs done, {failed} failed, "
        "{retries} retries, {timeouts} timeouts, "
        "{quarantined} trace rows quarantined".format(
            "ok" if result.ok else "FAILED", **summary
        )
    )
    print(f"manifest: {result.manifest.path}")
    for rec in sorted(result.manifest.runs.values(), key=lambda r: r.run_id):
        if rec.status == "failed" and rec.error is not None:
            print(
                f"  failed {rec.run_id} after {rec.attempts} attempts: "
                f"[{rec.error.get('kind')}] {rec.error.get('message', '')}",
                file=sys.stderr,
            )
    return 0 if result.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    config = ExperimentConfig(
        n_runs=args.runs, horizon_minutes=args.horizon, seed=args.seed
    )
    text = generate_report(config, _load_trace(args))
    atomic_write_text(Path(args.output), text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import render_all

    config = ExperimentConfig(
        n_runs=args.runs, horizon_minutes=args.horizon, seed=args.seed
    )
    paths = render_all(args.output, config, _load_trace(args))
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.serve.app import ServeLimits, serve

    token = args.token or os.environ.get("REPRO_SERVE_TOKEN") or None
    return serve(
        args.host,
        port=args.port,
        token=token,
        journal_dir=args.journal_dir,
        recover=args.recover,
        compact_every=args.compact_every,
        limits=ServeLimits(
            max_sessions=args.max_sessions,
            max_inflight=args.max_inflight,
            deadline_s=args.deadline_s,
            max_body_bytes=args.max_body_mb * 1024 * 1024,
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PULSE reproduction: serverless mixed-quality keep-alive",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--horizon", type=int, default=2880,
                       help="synthetic trace length in minutes")
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--azure-csv", nargs="+", metavar="CSV",
                       help="load these Azure per-day CSVs instead")
        p.add_argument("--functions", type=int, default=12,
                       help="keep the top-K functions of a loaded trace, or "
                            "scale the synthetic fleet to this many")

    names = list_policies()

    p_sim = sub.add_parser("simulate", help="run policies over a workload")
    add_trace_args(p_sim)
    p_sim.add_argument(
        "policies", nargs="+", choices=names, metavar="POLICY",
        help=f"one or more of: {', '.join(names)}",
    )
    p_sim.add_argument("--observe", action="store_true",
                       help="record metrics/spans/decision traces")
    p_sim.add_argument("--trace-out", metavar="JSONL",
                       help="dump the decision trace (implies --observe; "
                            "exactly one policy)")
    p_sim.add_argument("--report-out", metavar="HTML",
                       help="write an HTML run report (implies --observe; "
                            "exactly one policy)")
    p_sim.add_argument("--prom-out", metavar="PROM",
                       help="write a Prometheus text-format metrics "
                            "snapshot (implies --observe; exactly one "
                            "policy)")
    p_sim.add_argument("--trace-sample", type=int, default=0, metavar="N",
                       help="record full decision traces for a "
                            "deterministic sample of N function ids "
                            "(fleet engine; loop engines always record "
                            "every function; implies --observe)")
    p_sim.add_argument("--engine", choices=ENGINES, default="auto",
                       help="simulation engine (all are metric-identical)")
    p_sim.add_argument("--faults", metavar="SPEC",
                       help="fault plan, e.g. "
                            "'spawn=0.1,slow=0.05,drop=0.01,seed=7'")
    p_sim.add_argument("--resilient", action="store_true",
                       help="wrap each policy in the crash-isolation "
                            "ResilientPolicy")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ins = sub.add_parser(
        "inspect", help="answer why-questions against a JSONL decision trace"
    )
    p_ins.add_argument("trace", metavar="TRACE.jsonl",
                       help="trace written by simulate --trace-out")
    p_ins.add_argument("--cold", metavar="FID:MINUTE",
                       help="explain why the invocation was a cold start")
    p_ins.add_argument("--plan", metavar="FID:MINUTE",
                       help="show the band→variant plan covering that minute")
    p_ins.add_argument("--downgrades", nargs="?", const="",
                       metavar="FID[:MINUTE]",
                       help="explain Algorithm-2 / valve downgrades")
    p_ins.add_argument("--faults", nargs="?", const="", metavar="FID",
                       help="explain injected faults and policy crashes "
                            "(why did this function fall back?)")
    p_ins.set_defaults(func=_cmd_inspect)

    p_lint = sub.add_parser(
        "lint",
        help="static reproducibility checks (repro.analysis rule pack)",
        description=(
            "AST-lint the codebase against the repro-specific rule pack: "
            "RPR001 determinism, RPR002 engine parity, RPR003 policy "
            "contract, RPR004 deprecation hygiene, RPR005 spec-string "
            "hygiene, RPR006 exception hygiene, RPR007 facade "
            "signatures, RPR008 serve-layer lock discipline, RPR009 "
            "columnar-kernel hygiene, RPR010 snapshot-schema drift. "
            "Directory operands are expanded to their *.py files; a "
            "file operand is always linted, even when discovery would "
            "skip it."
        ),
        epilog=(
            "exit codes: 0 = clean; 1 = findings; 2 = engine error "
            "(a file failed to parse, reported as RPR000)"
        ),
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed "
             "repro package); explicit files are always linted",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (json is the CI artifact shape, sarif the "
             "code-scanning upload shape)",
    )
    p_lint.add_argument(
        "--rule", action="append", metavar="RULE",
        help="restrict to these rule ids (repeatable or comma-separated, "
             "e.g. --rule RPR001,RPR002)",
    )
    p_lint.add_argument(
        "--changed", action="store_true",
        help="lint only files changed vs git HEAD (plus untracked), "
             "keeping the files project-wide rules always need",
    )
    p_lint.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="lint files in N worker processes (0 = one per CPU; "
             "default: in-process)",
    )
    p_lint.add_argument(
        "--cache-dir", metavar="DIR",
        help="reuse per-file results from DIR/lint-cache.json when file "
             "and rule-pack hashes match (warm runs re-lint only what "
             "changed; the report stays byte-identical)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_prof = sub.add_parser("profile", help="Table I profiling campaign")
    p_prof.add_argument("--warm-samples", type=int, default=1000)
    p_prof.add_argument("--cold-samples", type=int, default=30)
    p_prof.add_argument("--seed", type=int, default=2024)
    p_prof.set_defaults(func=_cmd_profile)

    p_trace = sub.add_parser("trace", help="generate / summarize a trace")
    add_trace_args(p_trace)
    p_trace.add_argument("--export", metavar="DIR",
                         help="write the trace as Azure-schema CSVs")
    p_trace.set_defaults(func=_cmd_trace)

    p_rep = sub.add_parser("reproduce", help="reproduce a paper element")
    add_trace_args(p_rep)
    p_rep.add_argument(
        "experiment",
        choices=[
            "table1", "fig1", "fig2", "tables2-3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablations",
            "capacity",
        ],
    )
    p_rep.add_argument("--runs", type=int, default=3)
    p_rep.set_defaults(func=_cmd_reproduce)

    p_res = sub.add_parser(
        "resilience", help="sweep fault intensities and compare policies"
    )
    add_trace_args(p_res)
    p_res.add_argument(
        "--policies", nargs="+", choices=names, metavar="POLICY",
        default=["pulse", "openwhisk", "all-low"],
        help="policies to sweep (default: pulse openwhisk all-low)",
    )
    p_res.add_argument("--rates", default="0.0,0.05,0.1,0.2",
                       help="comma-separated fault intensities in [0, 1]")
    p_res.add_argument("--runs", type=int, default=3)
    p_res.add_argument("--fault-seed", type=int, default=0)
    p_res.add_argument("--pressure-mb", type=float, default=None,
                       help="also inject memory-pressure spikes capped at "
                            "this many MB")
    p_res.add_argument("--engine", choices=ENGINES, default="auto")
    p_res.set_defaults(func=_cmd_resilience)

    p_sweep = sub.add_parser(
        "sweep",
        help="durable policy sweep: manifest, checkpoints, crash-safe resume",
        description=(
            "Run every policy x run-index combination in its own worker "
            "process under a crash-safe manifest. Each run checkpoints "
            "periodically, failures are retried with jittered backoff, and "
            "an interrupted sweep continues with "
            "'repro sweep --resume DIR/manifest.json' — skipping finished "
            "runs and restarting in-flight ones from their last checkpoint. "
            "With --resume, every other flag is ignored: the manifest is "
            "the single source of truth for what the sweep was."
        ),
    )
    add_trace_args(p_sweep)
    p_sweep.add_argument("--out", metavar="DIR",
                         help="sweep output directory (manifest, run "
                              "artifacts, checkpoints)")
    p_sweep.add_argument("--resume", metavar="MANIFEST",
                         help="continue the sweep recorded in this "
                              "manifest.json")
    p_sweep.add_argument(
        "--policies", nargs="+", choices=names, metavar="POLICY",
        default=["pulse", "openwhisk", "all-low"],
        help="policies to sweep (default: pulse openwhisk all-low)",
    )
    p_sweep.add_argument("--runs", type=int, default=3,
                         help="sampled assignments per policy")
    p_sweep.add_argument("--jobs", type=int, default=2,
                         help="concurrent worker processes")
    p_sweep.add_argument("--engine", choices=ENGINES, default="auto")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-attempt wall-clock timeout (hung workers "
                              "are killed and retried)")
    p_sweep.add_argument("--retries", type=int, default=2,
                         help="retry budget per run after the first attempt")
    p_sweep.add_argument("--checkpoint-every", type=int, default=240,
                         metavar="MINUTES",
                         help="engine checkpoint cadence in trace minutes")
    p_sweep.add_argument("--chaos", metavar="SPEC",
                         help="fault-inject the executor itself: 'kill:N' "
                              "SIGKILLs each first attempt at its Nth "
                              "checkpoint, 'hang:N' hangs it there "
                              "(testing/demo only)")
    p_sweep.add_argument("--resilient", action="store_true",
                         help="wrap each policy in the crash-isolation "
                              "ResilientPolicy")
    p_sweep.add_argument("--lenient", action="store_true",
                         help="quarantine malformed Azure CSV rows instead "
                              "of refusing the trace")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    add_trace_args(p_report)
    p_report.add_argument("output", metavar="OUT.md",
                          help="path of the markdown report to write")
    p_report.add_argument("--runs", type=int, default=3)
    p_report.set_defaults(func=_cmd_report)

    p_fig = sub.add_parser("figures", help="render the paper figures as SVGs")
    add_trace_args(p_fig)
    p_fig.add_argument("output", metavar="DIR", help="directory for the SVGs")
    p_fig.add_argument("--runs", type=int, default=3)
    p_fig.set_defaults(func=_cmd_figures)

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP control plane over repro.serve sessions",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (loopback by default; "
                              "non-loopback binds require --token)")
    p_serve.add_argument("--port", type=int, default=8750)
    p_serve.add_argument("--token", default=None,
                         help="bearer token every request must carry "
                              "(falls back to $REPRO_SERVE_TOKEN)")
    p_serve.add_argument("--journal-dir", default=None, metavar="DIR",
                         help="write-ahead-journal directory: every "
                              "advance is journaled before it executes, "
                              "with periodic snapshot compaction")
    p_serve.add_argument("--recover", action="store_true",
                         help="rebuild all sessions found in "
                              "--journal-dir before serving")
    p_serve.add_argument("--compact-every", type=int, default=240,
                         metavar="MINUTES",
                         help="snapshot-compaction cadence in "
                              "session-minutes")
    p_serve.add_argument("--max-sessions", type=int, default=64,
                         help="admission control: 503 past this many "
                              "open sessions")
    p_serve.add_argument("--max-inflight", type=int, default=4,
                         help="backpressure: 429 past this many queued "
                              "advances per session")
    p_serve.add_argument("--deadline-s", type=float, default=30.0,
                         help="per-request deadline waiting on a "
                              "session (503 past it)")
    p_serve.add_argument("--max-body-mb", type=int, default=8,
                         help="reject request bodies larger than this "
                              "(413)")
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
