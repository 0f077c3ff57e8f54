#!/usr/bin/env python3
"""Serving-layer benchmark: sustained advance() throughput across many
concurrent tenant sessions.

Boots the stdlib HTTP transport (``repro.serve.app.make_server``) on an
ephemeral loopback port, creates ``--sessions`` tenant sessions (each a
``--n-functions``-function synthetic trace), then drives every session
``--minutes`` minutes forward over HTTP from a pool of client threads —
each ``POST .../advance`` steps one engine minute. The headline is
sustained **minutes/sec across the whole fleet of sessions** (requests
and engine minutes are 1:1).

Two numbers are reported so the transport cost is visible:

- ``http``    — full loopback round trips through ThreadingHTTPServer;
- ``inproc``  — the same drive calling ``SessionManager.advance()``
  directly, which bounds what a faster transport (an ASGI server, unix
  sockets) could recover.

A third measurement prices crash durability: the in-process drive run
with the write-ahead journal off vs on (order-balanced rounds, best-of
— wall-clock noise is additive, so the minimum is the robust
estimator), reported as ``journal.overhead_frac`` and gated by
``--gate-journal-overhead`` (the durability budget is <=10%). The
journaled rounds run the production-default 240-minute compaction
cadence, so the gated number is the steady-state write-ahead append
cost; compaction (a snapshot + fsync every 4 simulated hours per
session, ~4 ms each) amortizes below measurement noise at that cadence
and is exercised separately — and aggressively, every 16 minutes — by
``serve_chaos.py``.

Merges a ``serving`` section into ``BENCH_perf.json`` (other sections
untouched).

Usage::

    PYTHONPATH=src python scripts/bench_serve.py             # 100 sessions
    PYTHONPATH=src python scripts/bench_serve.py --quick     # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.serve import JournalSupervisor
from repro.serve.app import ServeLimits, SessionManager, make_server
from repro.utils.atomicio import atomic_write_json

SEED = 2024
#: Compaction cadence for the journaled rounds — the production
#: default (``repro serve --compact-every``). Tighter cadences turn the
#: per-bucket snapshot fsync into a convoy (every lockstep session
#: compacts in the same instant) and measure filesystem batching, not
#: the advance path; the chaos drill stresses that regime instead.
JOURNAL_EVERY_MINUTES = 240


def make_spec(n_functions: int, horizon: int, seed: int) -> dict:
    return {
        "synthetic": {
            "n_functions": n_functions,
            "horizon_minutes": horizon,
            "seed": seed,
        },
        "policy": "pulse",
        "engine": "fast",
        # Lean telemetry: decision records off keeps the payloads small
        # and measures the stepping path, not JSON encoding of records.
        "observe": False,
    }


def post_json(url: str, body: dict) -> dict:
    req = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    # A connect can still be reset under a simultaneous-connect burst
    # (urllib opens a fresh connection per request); retry briefly.
    # Worst case a session advances one extra minute — harmless for a
    # throughput measurement, and the horizon has slack for it.
    for attempt in range(3):
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return json.loads(resp.read())
        except ConnectionError:
            if attempt == 2:
                raise
            time.sleep(0.05 * (attempt + 1))


def drive_http(base_url: str, sids: list[str], minutes: int,
               workers: int) -> float:
    """Advance every session `minutes` minutes over HTTP; return seconds."""

    def drive(sid: str) -> None:
        url = f"{base_url}/v1/sessions/{sid}/advance"
        for _ in range(minutes):
            post_json(url, {})

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(drive, sid) for sid in sids]:
            future.result()
    return time.perf_counter() - start


def drive_inproc(manager: SessionManager, sids: list[str], minutes: int,
                 workers: int) -> float:
    def drive(sid: str) -> None:
        for _ in range(minutes):
            manager.advance(sid, {})

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(drive, sid) for sid in sids]:
            future.result()
    return time.perf_counter() - start


def _journal_round(journaled: bool, sessions: int, minutes: int,
                   n_functions: int, workers: int, seed0: int) -> float:
    """One timed in-process drive with the journal off or on."""
    horizon = minutes + 10
    with tempfile.TemporaryDirectory(prefix="bench-journal-") as tmp:
        manager = SessionManager(
            limits=ServeLimits(max_sessions=sessions),
            journal=JournalSupervisor(
                tmp, every_minutes=JOURNAL_EVERY_MINUTES
            )
            if journaled
            else None,
        )
        try:
            sids = [
                manager.create(make_spec(n_functions, horizon, seed0 + i))["id"]
                for i in range(sessions)
            ]
            drive_inproc(manager, sids, 1, workers)  # warm
            return drive_inproc(manager, sids, minutes, workers)
        finally:
            manager.close_all()


def bench_journal(sessions: int, minutes: int, n_functions: int,
                  workers: int) -> dict:
    """Journal-off vs journal-on, best-of over order-balanced rounds."""
    seconds: dict[bool, list[float]] = {False: [], True: []}
    for i, journaled in enumerate((False, True, True, False, False, True)):
        seconds[journaled].append(
            _journal_round(journaled, sessions, minutes, n_functions,
                           workers, SEED + 1000 * i)
        )
    off_s = min(seconds[False])
    on_s = min(seconds[True])
    total = sessions * minutes
    return {
        "sessions": sessions,
        "minutes_per_session": minutes,
        "compact_every_minutes": JOURNAL_EVERY_MINUTES,
        "rounds_off_seconds": seconds[False],
        "rounds_on_seconds": seconds[True],
        "off_seconds": off_s,
        "on_seconds": on_s,
        "off_minutes_per_s": total / off_s,
        "on_minutes_per_s": total / on_s,
        "overhead_frac": (on_s - off_s) / off_s,
    }


def bench(sessions: int, minutes: int, n_functions: int,
          workers: int) -> dict:
    horizon = 2 * minutes + 10  # room for both drives in one session set
    # Admission control would 503 the default 64-session table; the
    # bench sizes the limit to the fleet it is about to create.
    server = make_server(
        "127.0.0.1", port=0, limits=ServeLimits(max_sessions=sessions)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"
    try:
        create_start = time.perf_counter()
        sids = [
            post_json(
                f"{base_url}/v1/sessions",
                make_spec(n_functions, horizon, SEED + i),
            )["id"]
            for i in range(sessions)
        ]
        create_s = time.perf_counter() - create_start

        # Warm each session one minute (JITs the stepping path, pays
        # first-minute planning) before the timed windows.
        drive_http(base_url, sids, 1, workers)

        http_s = drive_http(base_url, sids, minutes, workers)
        inproc_s = drive_inproc(server.manager, sids, minutes, workers)

        total = sessions * minutes
        return {
            "sessions": sessions,
            "minutes_per_session": minutes,
            "n_functions": n_functions,
            "client_workers": workers,
            "engine": "fast",
            "create_seconds": create_s,
            "http": {
                "seconds": http_s,
                "minutes_per_s": total / http_s,
                "advances_per_s": total / http_s,
            },
            "inproc": {
                "seconds": inproc_s,
                "minutes_per_s": total / inproc_s,
                "advances_per_s": total / inproc_s,
            },
        }
    finally:
        server.manager.close_all()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=100,
                        help="concurrent tenant sessions (default 100)")
    parser.add_argument("--minutes", type=int, default=60,
                        help="minutes advanced per session (default 60)")
    parser.add_argument("--n-functions", type=int, default=12)
    parser.add_argument("--workers", type=int, default=16,
                        help="client threads driving the advances")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 24 sessions x 12 minutes")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent.parent
                        / "BENCH_perf.json")
    parser.add_argument(
        "--gate-minutes-per-s", type=float, default=None,
        help="fail if sustained HTTP minutes/sec falls below this",
    )
    parser.add_argument(
        "--gate-journal-overhead", type=float, default=None, metavar="FRAC",
        help="fail if the write-ahead journal costs more than this "
             "fraction of in-process advance throughput (e.g. 0.10)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.sessions, args.minutes = 24, 12

    print(
        f"serving bench: {args.sessions} sessions x {args.minutes} minutes "
        f"({args.n_functions} functions each, {args.workers} client threads)"
    )
    result = bench(args.sessions, args.minutes, args.n_functions,
                   args.workers)
    result["platform"] = platform.platform()
    result["python"] = platform.python_version()

    for mode in ("http", "inproc"):
        rate = result[mode]["minutes_per_s"]
        print(f"  {mode:7s} {rate:10.1f} minutes/s "
              f"({result[mode]['seconds']:.2f} s)")

    journal = bench_journal(args.sessions, args.minutes, args.n_functions,
                            args.workers)
    result["journal"] = journal
    print(
        f"  journal off {journal['off_minutes_per_s']:10.1f} minutes/s, "
        f"on {journal['on_minutes_per_s']:10.1f} minutes/s "
        f"(overhead {journal['overhead_frac']:+.1%})"
    )

    if args.out.exists():
        doc = json.loads(args.out.read_text())
    else:
        doc = {}
    doc["serving"] = result
    atomic_write_json(args.out, doc, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    if args.gate_minutes_per_s is not None:
        rate = result["http"]["minutes_per_s"]
        if rate < args.gate_minutes_per_s:
            print(
                f"GATE FAIL: sustained {rate:.1f} minutes/s < "
                f"{args.gate_minutes_per_s:.1f}",
                file=sys.stderr,
            )
            return 1
        print(f"gate ok: {rate:.1f} >= {args.gate_minutes_per_s:.1f}")

    if args.gate_journal_overhead is not None:
        frac = result["journal"]["overhead_frac"]
        if frac > args.gate_journal_overhead:
            print(
                f"GATE FAIL: journal overhead {frac:.1%} > "
                f"{args.gate_journal_overhead:.1%}",
                file=sys.stderr,
            )
            return 1
        print(
            f"gate ok: journal overhead {frac:.1%} <= "
            f"{args.gate_journal_overhead:.1%}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
