#!/usr/bin/env python3
"""Serve-chaos drill: SIGKILL the control plane mid-advance, recover,
byte-diff against the batch path.

The serving-layer counterpart of ``chaos_smoke.py`` — per engine
(reference, fleet):

1. boot ``repro serve`` as a subprocess with ``--journal-dir``;
2. open ``N_TENANTS`` concurrent sessions (mixed clean/fault-plan
   specs) and advance them from parallel client threads;
3. SIGKILL the server while those advances are in flight;
4. restart with ``--recover`` (printing its total seconds, slowest
   session and bytes read) and drive every session to the horizon;
5. require each tenant's decision JSONL and final summary to be
   **byte-identical** to the same spec replayed in-process through
   ``Simulation.run()``'s stepper (the batch path);
6. SIGTERM the recovered server and require a graceful drain: exit
   code 0, and the drained journal directory must itself recover.

Artifacts (journals + inputs documents + per-tenant decision JSONL) are left
in the work directory (first argv, default ``./serve-chaos``) for
upload. Exit code 0 only if every assertion holds for every engine.

Usage::

    PYTHONPATH=src python scripts/serve_chaos.py [workdir] [--tenants N]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
ENV = {
    **os.environ,
    "PYTHONPATH": str(REPO / "src"),
    "PYTHONUNBUFFERED": "1",
}

ENGINES = ("reference", "fleet")
N_TENANTS = 20
N_FUNCTIONS = 6
MINUTES = 48
FAULTS = "seed=7,spawn=0.2,slow=0.1"
#: SIGKILL once every tenant has at least this many acknowledged advances.
KILL_AFTER_ADVANCES = 5
#: ``repro serve --recover``'s report line.
RECOVERED = re.compile(
    r"recovered (\d+) session\(s\) in ([\d.]+)s \(slowest \S+ ([\d.]+)s\), "
    r"read (\d+) bytes"
)


def tenant_spec(engine: str, tenant: int) -> dict:
    spec = {
        "synthetic": {
            "n_functions": N_FUNCTIONS,
            "horizon_minutes": MINUTES,
            "seed": 100 + tenant,
        },
        "policy": "pulse",
        "engine": engine,
        "observe": True,
    }
    if tenant % 3 == 0:  # a third of the fleet runs under fault injection
        spec["faults"] = FAULTS
    return spec


def request(url: str, method: str = "GET", body: dict | None = None) -> dict:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read())


def to_jsonl(records: list[dict]) -> bytes:
    normalized = json.loads(json.dumps(records))
    return "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in normalized
    ).encode()


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, journal_dir: Path, *, recover: bool = False) -> None:
        args = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--journal-dir", str(journal_dir),
            "--compact-every", "16",
        ]
        if recover:
            args.append("--recover")
        self.proc = subprocess.Popen(
            args, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        self.recovered = 0
        self.recovery = ""
        self.base = self._await_listening()

    def _await_listening(self) -> str:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise SystemExit(
                    f"FAIL: server exited during startup "
                    f"(rc={self.proc.poll()})"
                )
            line = line.strip()
            print(f"  server: {line}")
            if "recovered" in line:
                self.recovered = int(line.split()[3])
                found = RECOVERED.search(line)
                if found is not None:
                    n, total_s, slowest_s, n_bytes = found.groups()
                    self.recovery = (
                        f"{n} sessions in {total_s}s, slowest "
                        f"{slowest_s}s, {n_bytes} bytes read"
                    )
            if "listening on " in line:
                url = line.split("listening on ", 1)[1]
                return url.removesuffix("/v1")
        raise SystemExit("FAIL: server never reported its port")

    def sigkill(self) -> None:
        os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait()

    def sigterm_and_check_drain(self) -> None:
        os.kill(self.proc.pid, signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise SystemExit("FAIL: SIGTERM drain hung past 60s")
        assert self.proc.stdout is not None
        tail = self.proc.stdout.read()
        if rc != 0:
            sys.stderr.write(tail)
            raise SystemExit(f"FAIL: drain exited {rc}, want 0")
        if "drained" not in tail:
            raise SystemExit(f"FAIL: no drain confirmation in: {tail!r}")


def advance_until_killed(base: str, sids: list[str]) -> threading.Event:
    """Client threads hammering advances; returns the event that flips
    once every tenant has KILL_AFTER_ADVANCES acknowledged steps."""
    counts = {sid: 0 for sid in sids}
    ready = threading.Event()

    def drive(sid: str) -> None:
        while True:
            try:
                step = request(
                    f"{base}/v1/sessions/{sid}/advance", "POST", {}
                )
            except (
                urllib.error.URLError,
                ConnectionError,
                OSError,
                http.client.HTTPException,
            ):
                return  # the SIGKILL landed — that is the point
            counts[sid] += 1
            if min(counts.values()) >= KILL_AFTER_ADVANCES:
                ready.set()
            if step["minute"] >= MINUTES - 1:
                return

    for sid in sids:
        threading.Thread(target=drive, args=(sid,), daemon=True).start()
    return ready


def drill(engine: str, workdir: Path, n_tenants: int) -> None:
    print(f"[{engine}] boot + {n_tenants} tenants")
    journal_dir = workdir / engine / "journal"
    server = Server(journal_dir)

    specs: dict[str, dict] = {}
    for tenant in range(n_tenants):
        spec = tenant_spec(engine, tenant)
        info = request(f"{server.base}/v1/sessions", "POST", spec)
        specs[info["id"]] = spec
    sids = sorted(specs)

    ready = advance_until_killed(server.base, sids)
    if not ready.wait(timeout=300):
        raise SystemExit(
            "FAIL: tenants never reached the kill threshold"
        )
    server.sigkill()
    print(f"[{engine}] SIGKILLed mid-advance "
          f"(>= {KILL_AFTER_ADVANCES} advances per tenant)")

    server = Server(journal_dir, recover=True)
    if server.recovered != n_tenants:
        raise SystemExit(
            f"FAIL: recovered {server.recovered} of {n_tenants} sessions"
        )
    if not server.recovery:
        raise SystemExit("FAIL: the recovery line reported no timings")
    print(f"[{engine}] recovery after SIGKILL: {server.recovery}")
    listed = request(f"{server.base}/v1/sessions")["sessions"]
    if sorted(s["id"] for s in listed) != sids:
        raise SystemExit("FAIL: recovered session ids drifted")

    from repro.serve.app import open_session_from_spec

    failures = 0
    for sid in sids:
        info = request(f"{server.base}/v1/sessions/{sid}")
        if not info["done"]:  # a tenant may have finished pre-kill
            request(f"{server.base}/v1/sessions/{sid}/advance", "POST",
                    {"minute": MINUTES - 1})
        gathered = request(
            f"{server.base}/v1/sessions/{sid}/decisions"
        )["decisions"]
        summary = request(f"{server.base}/v1/sessions/{sid}/result")

        batch = open_session_from_spec(dict(specs[sid]))
        batch_summary = json.loads(json.dumps(batch.replay().summary()))
        http_bytes, batch_bytes = to_jsonl(gathered), to_jsonl(
            batch.decisions()
        )
        (workdir / engine / f"{sid}.decisions.jsonl").write_bytes(http_bytes)
        for s in (summary, batch_summary):
            s.pop("wall_clock_s", None)
        if http_bytes != batch_bytes or summary != batch_summary:
            print(f"FAIL: [{engine}] {sid} diverged from batch "
                  f"({len(http_bytes)} vs {len(batch_bytes)} bytes)",
                  file=sys.stderr)
            failures += 1
    if failures:
        raise SystemExit(f"FAIL: {failures} tenant(s) diverged")
    print(f"[{engine}] all {n_tenants} tenants byte-match the batch path")

    server.sigterm_and_check_drain()
    print(f"[{engine}] graceful drain ok (exit 0)")

    # The drained directory must itself be a valid --recover source.
    from repro.serve import JournalSupervisor
    from repro.serve.app import SessionManager

    manager = SessionManager(
        journal=JournalSupervisor(journal_dir, every_minutes=16)
    )
    t0 = time.perf_counter()
    infos = manager.recover()
    total_s = time.perf_counter() - t0
    if sorted(i["id"] for i in infos) != sids or not all(
        i["done"] for i in infos
    ):
        raise SystemExit("FAIL: drained journal dir did not recover clean")
    manager.drain()  # keep journals + documents as uploadable artifacts
    print(
        f"[{engine}] drained directory recovers clean: {len(infos)} "
        f"sessions in {total_s:.3f}s, slowest "
        f"{max(i['recovery_s'] for i in infos):.3f}s, "
        f"{sum(i['bytes_read'] for i in infos)} bytes read"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", nargs="?", default="serve-chaos")
    parser.add_argument("--tenants", type=int, default=N_TENANTS)
    args = parser.parse_args(argv[1:])
    workdir = Path(args.workdir)
    for engine in ENGINES:
        (workdir / engine).mkdir(parents=True, exist_ok=True)
        drill(engine, workdir, args.tenants)
    print(f"serve-chaos: all engines pass ({args.tenants} tenants each)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
