#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
and its metric names, units and workload reasons come from
``BENCHMARK.json``. Workloads: ``paper-sweep``, ``fleet-10k``,
``serve-tenants`` (see their modules in this directory).

``--trace 0`` reports every end-to-end metric, measured with no
tracing. ``--trace 1`` is the separate traced run: it
reports every per-layer metric (0 for a layer the workload does not
use), checks that its spans split the run's time (``Tracer.problems``)
and writes them to ``.bench_out/spans-<workload>-<seed>.jsonl``.
``--out FILE`` appends the run's full record (result, inputs, samples)
to a JSONL file that ``bench/diff.py`` compares.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every operation succeeded and every output check matched.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from common import Tally, write_jsonl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Workload name -> its module in this directory.
WORKLOADS = {
    "paper-sweep": "paper_sweep",
    "fleet-10k": "fleet_10k",
    "serve-tenants": "serve_tenants",
}


@dataclass
class Context:
    """What a workload gets: its inputs' seed, the window, and where
    it may write."""

    seed: int
    seconds: float
    trace: bool
    root: Path
    work: Path
    tally: Tally = field(default_factory=Tally)
    tracer: object = None


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="append the run's full record to this JSONL file")
    return p.parse_args(argv)


def report(args, why: str, units: dict, outcome, tally: Tally) -> None:
    """The human-readable part of the output."""
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"why: {why}")
    inputs = outcome.record.get("inputs", {})
    print("inputs: " + ", ".join(f"{k}={v}" for k, v in inputs.items()))
    for name, value in outcome.metrics.items():
        print(f"  {name:38s} {value:16.6f} {units[name]}")
    for name, value in outcome.record.get("latency_ms", {}).items():
        print(f"  {name:38s} {value:16.6f} ms (detail)")
    print(f"  {'failed_pct':38s} {tally.failed_pct:16.6f} % "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:10]:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec(ROOT)
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    why = next(w["why"] for w in spec["workloads"]
               if w["name"] == args.workload)
    module_name = WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    ctx = Context(args.seed, args.seconds, bool(args.trace), ROOT, work)
    try:
        module = importlib.import_module(module_name)
        t0 = time.perf_counter()
        outcome = module.run(ctx)
        run_s = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it was never made

    if ctx.tracer is not None:
        ctx.tally.check("span attribution", ctx.tracer.problems(run_s))
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        print(f"bench: undeclared metrics {unknown}", file=sys.stderr)
        return 1
    expected = list(units)
    missing = [name for name in expected if name not in outcome.metrics]
    if args.trace:
        # A layer the workload does not use did no work.
        outcome.metrics.update({name: 0.0 for name in missing})
        missing = []
    for name in missing:
        ctx.tally.op(False, f"metric {name} could not be measured")
    metrics = {
        name: outcome.metrics[name] for name in expected
        if name in outcome.metrics
    }
    outcome.metrics = metrics
    report(args, why, units, outcome, ctx.tally)
    if ctx.tracer is not None:
        ctx.tracer.write(
            ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        )
    result = {
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    if args.out is not None:
        write_jsonl(args.out, [{
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "why": why,
            "failed_pct": ctx.tally.failed_pct,
            "problems": ctx.tally.problems,
            "result": result,
            "record": outcome.record,
        }])
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
