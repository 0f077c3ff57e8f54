#!/usr/bin/env python3
"""CI's perf gates, judged by the benchmark's own verdict rule.

    python3 scripts/bench_gate.py regress BASE_DIR
    python3 scripts/bench_gate.py obs
    python3 scripts/bench_gate.py journal

Run from anywhere; the tree this script sits in is the change.

- ``regress BASE_DIR`` runs ``bench/run.py --trace 0`` on the base tree
  (a checkout or ``git archive`` of the commit to compare against) and
  on this tree, alternating fresh processes: each seed runs every
  workload on both sides, the side that goes first flipping per seed.
  Every end-to-end metric of every workload is judged by
  ``bench/diff.py``'s ``verdict`` at its ``BENCHMARK.json`` bound.
- ``obs`` holds the fleet observability budget: a 10k-function x
  120-minute fleet ``simulate()`` with sampled decision traces
  (``ObservabilityConfig(trace_sample=8)``) against the same run with
  observability off.
- ``journal`` holds the durability budget: an in-process
  ``SessionManager`` drive with a ``JournalSupervisor`` against the
  same drive without one.

The budget gates run alternating on/off rounds, each in its own
process (``bench_gate.py obs-round on`` and so on), and judge the
rounds' times by ``verdict(off_s, on_s, "lower", 0.10)``.

A gate exits 1 when a verdict reads ``worse`` or when a run fails (a
record with ``correct: false``, or a process that crashed or timed out),
naming the side. A spread wider than the bound whose runs overlap reads
``unresolved`` and passes: the runs cannot tell at that bound, so the
gate does not decide by noise. Run sets go to ``.bench_out/gate/`` as
JSONL.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from common import write_jsonl  # noqa: E402
from diff import collect, load, spread, verdict  # noqa: E402

OUT = ROOT / ".bench_out" / "gate"
WORKLOADS = ("paper-sweep", "fleet-10k", "serve-tenants")
#: Five seeds give each side five runs per workload: enough for
#: quartiles, and one outlier cannot move a median.
REGRESS_SEEDS = (1, 2, 3, 4, 5)
#: Seconds per benchmark run: three fleet-10k iterations fit, and the
#: 30 runs stay inside the CI step's time limit.
RUN_SECONDS = 10
#: A child that takes longer than this has hung; it counts as failed.
CHILD_TIMEOUT_S = 600

#: Both budgets: observability and the journal may each cost at most
#: this share of the run they ride on.
BUDGET = 0.10
SEED = 2024
#: Rounds per side of a budget gate, each in a fresh process. Seven
#: puts two rounds beyond each quartile, so one slow round cannot
#: widen the spread by itself.
ROUNDS = 7
#: The fleet size and horizon the observability budget is stated at:
#: its per-minute cost is fixed, so smaller fleets overstate it.
OBS_FUNCTIONS, OBS_HORIZON, OBS_TRACE_SAMPLE = 10_000, 120, 8
#: Timed runs per round, in its process; the round reads the fastest,
#: since host noise only ever adds time.
REPEATS = 3
#: Journal rounds: tenants x minutes. 24 x 480 = 11,520 advances take a
#: few seconds, against the 0.1 s rounds that could not resolve 10%;
#: 480 minutes cross the production 240-minute compaction cadence twice.
JOURNAL_SESSIONS, JOURNAL_MINUTES = 24, 480


# -- verdicts ---------------------------------------------------------------

def failures(side: str, rows: list[dict]) -> list[str]:
    return [
        f"FAILED {side}: {row['workload']} seed {row['seed']}: "
        + "; ".join(row.get("problems", [])[:3])
        for row in rows if not row["result"]["correct"]
    ]


def pct(values: list[float]) -> str:
    return f"{100 * spread(values):.1f}%"


def judge_regress(
    base: list[dict], head: list[dict], spec: dict
) -> tuple[int, list[str]]:
    """Exit code and report of the regression gate over two run sets."""
    failed = failures("base", base) + failures("head", head)
    code = 1 if failed else 0
    lines = failed + ["change of head against base; positive is better"]
    a, b = collect(base, 0), collect(head, 0)
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for w in sorted(set(a) & set(b)):
            if name not in a[w] or name not in b[w]:
                continue
            change, word = verdict(a[w][name], b[w][name], m["better"], bound)
            code |= word == "worse"
            lines.append(
                f"{w:14s} {name:24s} {100 * change:+7.2f}% {word:10s} "
                f"bound {100 * bound:g}%  spread base {pct(a[w][name])} "
                f"head {pct(b[w][name])}"
            )
    lines.append(f"regress: {'FAIL' if code else 'pass'}")
    return code, lines


def judge_budget(
    gate: str, off_s: list[float], on_s: list[float], failed: int = 0
) -> tuple[int, list[str]]:
    """Exit code and report of a budget gate over its rounds' seconds."""
    change, word = verdict(off_s, on_s, "lower", BUDGET)
    code = int(word == "worse" or failed > 0)
    lines = [
        f"{gate}: overhead {-100 * change:+.2f}% {word}, budget "
        f"{100 * BUDGET:g}%; spread off {pct(off_s)} on {pct(on_s)} "
        f"({len(off_s)} + {len(on_s)} rounds, {failed} failed)",
        "off s: " + " ".join(f"{s:.3f}" for s in off_s),
        "on  s: " + " ".join(f"{s:.3f}" for s in on_s),
        f"{gate}: {'FAIL' if code else 'pass'}",
    ]
    return code, lines


# -- runs -------------------------------------------------------------------

def child(cmd: list[str], tree: Path) -> subprocess.CompletedProcess | None:
    """Run ``cmd`` in ``tree``; ``None`` when it hung. Each entry point
    puts its own tree's ``src`` first on ``sys.path``."""
    try:
        return subprocess.run(
            cmd, cwd=tree, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None


def bench_run(tree: Path, workload: str, seed: int, out: Path) -> None:
    """One ``bench/run.py`` run; a run that left no record gets a failed
    one, so a crash counts against its side."""
    before = out.read_text().count("\n") if out.exists() else 0
    proc = child(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", "0", "--out", str(out)],
        tree,
    )
    after = out.read_text().count("\n") if out.exists() else 0
    if after == before:
        tail = "timed out" if proc is None else proc.stderr[-300:].strip()
        write_jsonl(out, [{
            "workload": workload, "seed": seed, "trace": 0,
            "problems": [f"no record: {tail}"],
            "result": {"correct": False, "metrics": {}},
        }])


def regress(base_dir: Path) -> int:
    if not (base_dir / "bench" / "run.py").is_file():
        print(f"regress: no bench/run.py under {base_dir}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"base": base_dir.resolve(), "head": ROOT}
    outs = {side: OUT / f"regress-{side}.jsonl" for side in sides}
    for path in outs.values():
        path.unlink(missing_ok=True)
    for i, seed in enumerate(REGRESS_SEEDS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in WORKLOADS:
            for side in order:
                t0 = time.perf_counter()
                bench_run(sides[side], workload, seed, outs[side])
                print(f"  {side} {workload} seed {seed} "
                      f"{time.perf_counter() - t0:.1f} s", flush=True)
    code, lines = judge_regress(load(outs["base"]), load(outs["head"]), spec)
    print("\n".join(lines))
    return code


def budget(gate: str) -> int:
    out = OUT / f"{gate}.jsonl"
    out.unlink(missing_ok=True)
    seconds: dict[str, list[float]] = {"off": [], "on": []}
    failed = 0
    for r in range(ROUNDS):
        for mode in ("off", "on") if r % 2 == 0 else ("on", "off"):
            proc = child(
                [sys.executable, str(Path(__file__).resolve()),
                 f"{gate}-round", mode],
                ROOT,
            )
            if proc is None or proc.returncode != 0:
                failed += 1
                print(f"  FAILED {gate} {mode} round {r}: "
                      + ("timed out" if proc is None
                         else proc.stderr[-300:].strip()), flush=True)
                continue
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            s = record["seconds"]
            seconds[mode].append(s)
            write_jsonl(out, [{"gate": gate, "mode": mode, "round": r,
                               **record}])
            print(f"  {gate} {mode} round {r} {s:.3f} s", flush=True)
    if not seconds["off"] or not seconds["on"]:
        print(f"{gate}: FAIL, no rounds finished on a side")
        return 1
    code, lines = judge_budget(gate, seconds["off"], seconds["on"], failed)
    print("\n".join(lines))
    return code


# -- one round, in its own process ------------------------------------------

def obs_round(on: bool) -> list[float]:
    from repro.api import simulate
    from repro.experiments.assignments import sample_assignment
    from repro.obs.session import ObservabilityConfig
    from repro.runtime.simulator import SimulationConfig
    from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

    trace = generate_trace(SyntheticTraceConfig(
        horizon_minutes=OBS_HORIZON, seed=SEED, n_functions=OBS_FUNCTIONS
    ))
    assignment = sample_assignment(OBS_FUNCTIONS, seed=SEED)
    observe = ObservabilityConfig(trace_sample=OBS_TRACE_SAMPLE) if on else None
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        simulate(trace, assignment=assignment, policy="pulse", engine="fleet",
                 config=SimulationConfig(record_series=False), observe=observe)
        times.append(time.perf_counter() - t0)
    return times


def journal_round(on: bool) -> list[float]:
    return [journal_drive(on) for _ in range(REPEATS)]


def journal_drive(on: bool) -> float:
    import tempfile

    from repro.serve import JournalSupervisor
    from repro.serve.app import ServeLimits, SessionManager

    with tempfile.TemporaryDirectory(prefix="bench-gate-journal-") as tmp:
        manager = SessionManager(
            limits=ServeLimits(max_sessions=JOURNAL_SESSIONS),
            journal=JournalSupervisor(tmp) if on else None,
        )
        try:
            sids = [
                manager.create({
                    "synthetic": {
                        "n_functions": 12,
                        "horizon_minutes": JOURNAL_MINUTES + 10,
                        "seed": SEED + i,
                    },
                    "policy": "pulse",
                    "engine": "reference",
                    "observe": False,
                })["id"]
                for i in range(JOURNAL_SESSIONS)
            ]
            for sid in sids:  # the first minute pays one-off set-up
                manager.advance(sid, {})
            t0 = time.perf_counter()
            for _ in range(JOURNAL_MINUTES - 1):
                for sid in sids:
                    manager.advance(sid, {})
            return time.perf_counter() - t0
        finally:
            manager.close_all()


ROUND_FNS = {"obs-round": obs_round, "journal-round": journal_round}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "regress":
        return regress(Path(argv[1]))
    if len(argv) == 1 and argv[0] in ("obs", "journal"):
        return budget(argv[0])
    if len(argv) == 2 and argv[0] in ROUND_FNS and argv[1] in ("on", "off"):
        times = ROUND_FNS[argv[0]](argv[1] == "on")
        print(json.dumps({"seconds": min(times), "repeats": times}))
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
