#!/usr/bin/env python3
"""Serving-layer CI smoke: the HTTP control plane replays exactly.

Boots the HTTP server on an ephemeral loopback port, creates one
12-function synthetic-trace session, drives it 60 minutes with
``POST .../advance`` (one request per engine minute), and requires the
decision stream gathered over HTTP to **byte-match** the same trace
stepped in-process — both serialized as canonical JSONL (sorted keys).
Also cross-checks the per-advance decision deltas against the final
``GET .../decisions`` stream and the finished run summaries.

Writes the JSONL decision trace to the path given as argv[1]
(default ``serve-decisions.jsonl``) for upload as a CI artifact.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [artifact.jsonl]
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.request
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


def request(url: str, method: str = "GET", body: dict | None = None) -> dict:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def to_jsonl(records: list[dict]) -> bytes:
    # Canonical bytes: JSON round trip (the wire format) then sorted
    # keys, one record per line.
    normalized = json.loads(json.dumps(records))
    return "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in normalized
    ).encode()


def main(argv: list[str]) -> int:
    artifact = Path(argv[1]) if len(argv) > 1 else Path("serve-decisions.jsonl")

    server = make_server("127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        info = request(f"{base}/v1/sessions", "POST", SPEC)
        sid = info["id"]
        print(f"session {sid}: {info['n_functions']} functions, "
              f"{info['horizon_minutes']} minutes, engine={info['engine']}")

        streamed: list[dict] = []
        for _ in range(MINUTES):
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
    finally:
        server.manager.close_all()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)

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
