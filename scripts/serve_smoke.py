#!/usr/bin/env python3
"""Serving-layer CI smoke: the HTTP control plane replays exactly.

Boots the HTTP server on an ephemeral loopback port, creates one
12-function synthetic-trace session, drives it 60 minutes with
``POST .../advance`` (one request per engine minute), and requires the
decision stream gathered over HTTP to **byte-match** the same trace
stepped in-process — both serialized as canonical JSONL (sorted keys).
Also cross-checks the per-advance decision deltas against the final
``GET .../decisions`` stream and the finished run summaries.

Restore across servers: after 30 of the 60 minutes it takes the
session's inputs document (``GET .../snapshot``), restores it into a
second, fresh server with no journal (``POST /v1/sessions/restore``),
drives the restored session to minute 60 there, and requires its
decision JSONL to byte-match the in-process run too.

Writes the JSONL decision trace to the path given as argv[1]
(default ``serve-decisions.jsonl``) for upload as a CI artifact.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [artifact.jsonl]
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import urllib.request
from collections.abc import Iterator
from pathlib import Path

from repro.serve.app import make_server, open_session_from_spec

N_FUNCTIONS = 12
MINUTES = 60
SPEC = {
    "synthetic": {
        "n_functions": N_FUNCTIONS,
        "horizon_minutes": MINUTES,
        "seed": 2024,
    },
    "policy": "pulse",
    "engine": "reference",
    "observe": True,
}


def request(
    url: str, method: str = "GET", body: dict | bytes | None = None,
    raw: bool = False,
):
    data = body if body is None or isinstance(body, bytes) else (
        json.dumps(body).encode()
    )
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        payload = resp.read()
    return payload if raw else json.loads(payload)


@contextlib.contextmanager
def running_server() -> Iterator[str]:
    """A fresh in-process server (no journal) on an ephemeral port."""
    server = make_server("127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.manager.close_all()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def to_jsonl(records: list[dict]) -> bytes:
    # Canonical bytes: JSON round trip (the wire format) then sorted
    # keys, one record per line.
    normalized = json.loads(json.dumps(records))
    return "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in normalized
    ).encode()


def main(argv: list[str]) -> int:
    artifact = Path(argv[1]) if len(argv) > 1 else Path("serve-decisions.jsonl")

    with running_server() as base:
        info = request(f"{base}/v1/sessions", "POST", SPEC)
        sid = info["id"]
        print(f"session {sid}: {info['n_functions']} functions, "
              f"{info['horizon_minutes']} minutes, engine={info['engine']}")

        streamed: list[dict] = []
        document = b""
        for minute in range(MINUTES):
            if minute == MINUTES // 2:
                document = request(
                    f"{base}/v1/sessions/{sid}/snapshot", raw=True
                )
            step = request(f"{base}/v1/sessions/{sid}/advance", "POST", {})
            streamed.extend(step["decisions"])
        print(f"drove {MINUTES} minutes over HTTP: "
              f"{len(streamed)} decision records streamed")

        gathered = request(f"{base}/v1/sessions/{sid}/decisions")["decisions"]
        if to_jsonl(streamed) != to_jsonl(gathered):
            print("FAIL: per-advance deltas != GET /decisions stream",
                  file=sys.stderr)
            return 1

        http_summary = request(f"{base}/v1/sessions/{sid}/result")

    # Restore across servers: the minute-30 inputs document, rebuilt in
    # a second server that never saw the session, then driven on.
    with running_server() as other:
        restored = request(f"{other}/v1/sessions/restore", "POST", document)
        rid = restored["id"]
        print(f"restored the minute-{MINUTES // 2} inputs document "
              f"({len(document)} bytes) into a fresh server as {rid} "
              f"at minute {restored['next_minute']}")
        while not request(f"{other}/v1/sessions/{rid}")["done"]:
            request(f"{other}/v1/sessions/{rid}/advance", "POST", {})
        restored_decisions = request(
            f"{other}/v1/sessions/{rid}/decisions"
        )["decisions"]

    # The same trace stepped in-process (the batch path every run —
    # repro.api.simulate included — goes through).
    batch = open_session_from_spec(dict(SPEC))
    batch_result = batch.replay()
    batch_bytes = to_jsonl(batch.decisions())
    http_bytes = to_jsonl(gathered)

    artifact.write_bytes(http_bytes)
    print(f"wrote {artifact} ({len(http_bytes)} bytes)")

    if http_bytes != batch_bytes:
        print("FAIL: HTTP decision trace != batch decision trace",
              file=sys.stderr)
        return 1
    print(f"decision byte-match ok: {len(gathered)} records, "
          f"{len(http_bytes)} bytes")
    if to_jsonl(restored_decisions) != batch_bytes:
        print("FAIL: restored session's decision trace != batch decision "
              "trace", file=sys.stderr)
        return 1
    print("restore-across-servers byte-match ok")

    batch_summary = json.loads(json.dumps(batch_result.summary()))
    for summary in (http_summary, batch_summary):
        summary.pop("wall_clock_s", None)
    if http_summary != batch_summary:
        print(f"FAIL: summaries differ\n http:  {http_summary}\n "
              f"batch: {batch_summary}", file=sys.stderr)
        return 1
    print(f"summary match ok: cost ${batch_summary['keepalive_cost_usd']:.4f}, "
          f"warm fraction {batch_summary['warm_fraction']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
