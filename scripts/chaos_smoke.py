"""Chaos smoke: kill a durable sweep mid-flight, resume it, diff artifacts.

The end-to-end durability drill the CI chaos job runs, once per engine
(``reference`` and ``fleet``; both checkpoint through the same batch
driver):

1. an uninterrupted sweep produces the baseline artifacts;
2. the same sweep runs with worker chaos (``--chaos kill:1``: every
   first attempt SIGKILLs itself at its first engine checkpoint) AND the
   sweep *parent* process is SIGKILLed as soon as the manifest shows
   partial progress — the worst realistic crash;
3. ``repro sweep --resume`` restarts from the manifest until done;
4. the recovered ``runs/*.json`` artifacts must be byte-identical to the
   baseline's, and the manifest must show every run done;
5. a lenient-mode sweep over a deliberately corrupted Azure CSV must
   quarantine exactly the bad rows into ``quarantine.jsonl`` and still
   finish.

Exit code 0 only if every assertion holds. Artifacts are left in the
work directory (first argv, default ``./chaos-smoke``) for upload: the
drill's sweeps under ``<engine>/clean`` and ``<engine>/chaos``, the
lenient-ingestion sweep under ``dirty``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

ENGINES = ("reference", "fleet")


def sweep_args(engine: str) -> list[str]:
    return [
        "--policies", "pulse", "openwhisk",
        "--runs", "2", "--jobs", "2",
        "--horizon", "360", "--seed", "7",
        "--engine", engine, "--checkpoint-every", "60",
    ]


def repro(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repro", *args]
    proc = subprocess.run(cmd, env=ENV, capture_output=True, text=True)
    if check and proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL: {' '.join(args[:2])} exited {proc.returncode}")
    return proc


def artifacts(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted((out / "runs").glob("*.json"))
        if not p.name.endswith(".error.json")
    }


def parent_kill_sweep(out: Path, engine: str) -> None:
    """Start a chaos sweep and SIGKILL the parent once it shows progress."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", *sweep_args(engine),
         "--chaos", "kill:1", "--out", str(out)],
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    manifest = out / "manifest.json"
    deadline = time.monotonic() + 120
    while proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.05)
        if not manifest.exists():
            continue
        try:
            runs = json.loads(manifest.read_text())["runs"].values()
        except (json.JSONDecodeError, KeyError):
            raise SystemExit("FAIL: manifest torn or malformed mid-sweep")
        states = {r["status"] for r in runs}
        if "done" in states and states != {"done"}:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"  parent SIGKILLed with run states {sorted(states)}")
            return
    proc.wait()
    print("  sweep finished before the parent kill landed (still a pass: "
          "the resume below must be a clean no-op)")


def drill(work: Path, engine: str) -> None:
    """Steps 1-4 for one engine."""
    clean, chaos = work / engine / "clean", work / engine / "chaos"

    print(f"== {engine} 1/2 baseline sweep")
    repro("sweep", *sweep_args(engine), "--out", str(clean))

    print(f"== {engine} 2/2 chaos sweep: worker SIGKILLs + parent SIGKILL, "
          "then resume")
    parent_kill_sweep(chaos, engine)
    for attempt in range(5):
        proc = repro("sweep", "--resume", str(chaos / "manifest.json"),
                     check=False)
        if proc.returncode == 0:
            break
        print(f"  resume attempt {attempt + 1} exited {proc.returncode}")
    else:
        raise SystemExit("FAIL: sweep did not converge in 5 resumes")

    summary = json.loads((chaos / "manifest.json").read_text())
    statuses = {r["status"] for r in summary["runs"].values()}
    if statuses != {"done"}:
        raise SystemExit(f"FAIL: post-resume run states {sorted(statuses)}")
    if artifacts(chaos) != artifacts(clean):
        raise SystemExit("FAIL: recovered artifacts differ from baseline")
    if summary["n_retries"] == 0:
        raise SystemExit("FAIL: no worker was killed at a checkpoint")
    print(f"  artifacts byte-identical across {len(artifacts(clean))} runs "
          f"({summary['n_retries']} retries, {summary['n_timeouts']} timeouts)")


def main() -> int:
    work = Path(sys.argv[1] if len(sys.argv) > 1 else "chaos-smoke")
    for engine in ENGINES:
        drill(work, engine)

    dirty = work / "dirty"
    print("== lenient ingestion of a corrupted trace dump")
    csv_dir = dirty / "csv"
    repro("trace", "--horizon", "360", "--seed", "7",
          "--export", str(csv_dir))
    day = sorted(csv_dir.glob("*.csv"))[0]
    with day.open("a") as fh:
        fh.write("owner9999,app9999,fn-corrupt,http" + ",-1" * 360 + "\n")
        fh.write("owner9998,app9998,fn-truncated,http,1,2\n")
    out = dirty / "sweep"
    repro("sweep", "--policies", "pulse", "--runs", "1", "--jobs", "1",
          "--azure-csv", *(str(p) for p in sorted(csv_dir.glob("*.csv"))),
          "--functions", "3", "--lenient", "--checkpoint-every", "60",
          "--out", str(out))
    sidecar = out / "quarantine.jsonl"
    reasons = [json.loads(l)["reason"] for l in
               sidecar.read_text().splitlines()]
    if len(reasons) != 2 or not any("negative" in r for r in reasons):
        raise SystemExit(f"FAIL: unexpected quarantine contents {reasons}")
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest["ingest"]["n_quarantined"] != 2:
        raise SystemExit("FAIL: manifest does not record the quarantine")
    print("  2 corrupt rows quarantined with reasons, sweep still done")

    print("chaos smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
