#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or describe one.

    python3 bench/diff.py A.jsonl B.jsonl
    python3 bench/diff.py A.jsonl

A result file is the JSONL that ``bench/run.py --out FILE`` appends to:
one record per run, any mix of workloads, seeds and trace modes.

With two files, every end-to-end metric gets a table with one row per
workload: each side's median and quartiles over its untraced runs, the
change of B's median against A's (positive is better), the metric's
bound from ``BENCHMARK.json`` and a verdict:

- ``unresolved`` -- the wider side's spread (quartile distance over the
  median) exceeds the bound and the runs of A and B overlap, so the
  benchmark cannot tell at this bound;
- ``worse`` -- B's median is worse than A's by more than the bound;
- ``better`` -- B's median is better than A's by more than the bound
  and more than the spread (host drift between two sets of runs of the
  same code has moved a median by up to a fifth, so a smaller gain
  needs interleaved pairs to be claimed);
- ``same`` -- anything else: any change is within the bound.

The per-layer metrics of the traced runs follow, as median deltas.

With one file, each metric's median, quartiles and spread are printed
against its bound: the check that two sets of runs of the same code can
agree.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from common import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows


def collect(rows: list[dict], trace: int) -> dict[str, dict[str, list]]:
    """``{workload: {metric: [values...]}}`` over runs of one mode."""
    out: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for row in rows:
        if row["trace"] != trace:
            continue
        for name, m in row["result"]["metrics"].items():
            out[row["workload"]][name].append(m["value"])
    return out


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(relative change, verdict) of B against A; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    noise = max(spread(a), spread(b))
    separated = (
        min(sign * v for v in b) > max(sign * v for v in a)
        or max(sign * v for v in b) < min(sign * v for v in a)
    )
    if noise > bound and not separated:
        return change, "unresolved"
    if change < -bound:
        return change, "worse"
    if change > max(bound, noise):
        return change, "better"
    return change, "same"


def fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare(a_rows: list[dict], b_rows: list[dict], spec: dict) -> list[str]:
    lines = []
    a_e2e, b_e2e = collect(a_rows, 0), collect(b_rows, 0)
    for m in spec["end_to_end"]:
        name = m["name"]
        rows = [
            w for w in a_e2e
            if name in a_e2e[w] and name in b_e2e.get(w, {})
        ]
        if not rows:
            continue
        lines.append(f"{name} ({m['unit']}, {m['better']} is better, "
                     f"bound {100 * m['bound']:g}%)")
        for w in rows:
            a, b = a_e2e[w][name], b_e2e[w][name]
            change, word = verdict(a, b, m["better"], m["bound"])
            lines.append(f"  {w:15s} A {fmt(a):44s} B {fmt(b):44s} "
                         f"{100 * change:+7.2f}%  {word}")
    a_pl, b_pl = collect(a_rows, 1), collect(b_rows, 1)
    workloads = [w for w in a_pl if w in b_pl]
    if workloads:
        lines.append("per-layer (traced runs): median A -> median B")
    for w in workloads:
        lines.append(f"  {w}")
        for m in spec["per_layer"]:
            name = m["name"]
            if name not in a_pl[w] or name not in b_pl[w]:
                continue
            med_a = quartiles(a_pl[w][name])[1]
            med_b = quartiles(b_pl[w][name])[1]
            delta = (
                f"{100 * (med_b - med_a) / abs(med_a):+8.2f}%"
                if med_a else "        "
            )
            lines.append(f"    {name:38s} {med_a:14.6g} -> {med_b:14.6g} "
                         f"{m['unit']:8s} {delta}")
    return lines


def describe(rows: list[dict], spec: dict) -> list[str]:
    lines = []
    e2e = collect(rows, 0)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for w, metrics in e2e.items():
        lines.append(w)
        for name, values in metrics.items():
            s = spread(values)
            bound = bounds[name]["bound"]
            note = (
                "steady" if s < bound / 3 else "within bound"
                if s <= bound else "TOO NOISY"
            )
            lines.append(f"  {name:26s} {fmt(values):52s} spread "
                         f"{100 * s:6.2f}% bound {100 * bound:5.1f}% {note}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path, nargs="?")
    p.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = p.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    a_rows = load(args.a)
    lines = (
        compare(a_rows, load(args.b), spec) if args.b is not None
        else describe(a_rows, spec)
    )
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
