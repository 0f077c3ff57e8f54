"""The HTTP serving layer (:mod:`repro.serve.app`).

These tests run the server's own HTTP/1.1 request loop on an ephemeral
loopback port and drive it with :mod:`urllib`, :mod:`http.client` and,
for framing and transport errors, raw sockets.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.runtime.checkpoint import SimulationState
from repro.serve.app import (
    ApiError,
    ServeLimits,
    SessionManager,
    make_server,
    open_session_from_spec,
)
from repro.serve.journal import INPUTS_FORMAT, JournalSupervisor, SessionInputs

SYNTH_SPEC = {
    "synthetic": {"n_functions": 6, "horizon_minutes": 48, "seed": 3},
    "policy": "pulse",
}


@contextlib.contextmanager
def running_server(**kwargs):
    """A live stdlib server on an ephemeral loopback port."""
    server = make_server("127.0.0.1", port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", server
    finally:
        server.manager.close_all()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


@pytest.fixture()
def base_url():
    with running_server() as (url, _server):
        yield url


def request(url, method="GET", body=None, raw=False, headers=None):
    """Issue a request; return (status, decoded-or-raw body)."""
    data = None
    headers = dict(headers or {})
    if body is not None:
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        if not isinstance(body, bytes):
            headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, method=method,
                                 headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            payload = resp.read()
            status = resp.status
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        status = exc.code
    if raw:
        return status, payload
    return status, json.loads(payload)


class TestLifecycle:
    def test_healthz(self, base_url):
        status, body = request(f"{base_url}/v1/healthz")
        assert (status, body) == (200, {"status": "ok"})

    def test_create_advance_result(self, base_url):
        status, info = request(
            f"{base_url}/v1/sessions", "POST", SYNTH_SPEC
        )
        assert status == 200
        sid = info["id"]
        assert info["next_minute"] == 0
        assert not info["done"]

        status, step = request(
            f"{base_url}/v1/sessions/{sid}/advance", "POST", {}
        )
        assert status == 200
        assert step["minute"] == 0
        assert isinstance(step["decisions"], list)

        # result is 409 until the horizon...
        status, body = request(f"{base_url}/v1/sessions/{sid}/result")
        assert status == 409

        # ...jump to the last minute and read it out.
        status, step = request(
            f"{base_url}/v1/sessions/{sid}/advance", "POST", {"minute": 47}
        )
        assert status == 200
        status, summary = request(f"{base_url}/v1/sessions/{sid}/result")
        assert status == 200
        assert summary["invocations"] >= 0
        assert "keepalive_cost_usd" in summary

    def test_list_and_delete(self, base_url):
        _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
        sid = info["id"]
        _, listing = request(f"{base_url}/v1/sessions")
        assert sid in [s["id"] for s in listing["sessions"]]
        status, body = request(
            f"{base_url}/v1/sessions/{sid}", "DELETE"
        )
        assert (status, body["closed"]) == (200, True)
        status, _ = request(f"{base_url}/v1/sessions/{sid}")
        assert status == 404

    def test_unknown_session_404(self, base_url):
        for path in ("", "/advance", "/metrics", "/result"):
            method = "POST" if path == "/advance" else "GET"
            status, body = request(
                f"{base_url}/v1/sessions/nope{path}", method,
                {} if method == "POST" else None,
            )
            assert status == 404, path

    def test_bad_spec_400(self, base_url):
        cases = [
            {},  # no workload
            {"synthetic": {"n_functions": 4}, "meta": {"n_functions": 4}},
            {"synthetic": {"n_functions": 4}, "turbo": True},
            {"synthetic": {"n_functions": -1}},
        ]
        for spec in cases:
            status, body = request(f"{base_url}/v1/sessions", "POST", spec)
            assert status == 400, spec
            assert "error" in body

    def test_shards_spec_key_is_unknown(self, base_url):
        spec = {"synthetic": {"n_functions": 4}, "engine": "fleet",
                "shards": 2}
        status, body = request(f"{base_url}/v1/sessions", "POST", spec)
        assert status == 400
        assert "unknown session spec keys: shards" in body["error"]

    def test_fast_engine_spec_400(self, base_url):
        spec = {"synthetic": {"n_functions": 4}, "engine": "fast"}
        status, body = request(f"{base_url}/v1/sessions", "POST", spec)
        assert status == 400
        assert "choose one of: auto, reference, fleet" in body["error"]

    def test_rewind_is_409(self, base_url):
        _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
        sid = info["id"]
        request(f"{base_url}/v1/sessions/{sid}/advance", "POST",
                {"minute": 10})
        status, body = request(
            f"{base_url}/v1/sessions/{sid}/advance", "POST", {"minute": 3}
        )
        assert status == 409
        assert "already executed" in body["error"]


class TestReadouts:
    def test_metrics_exposition(self, base_url):
        _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
        sid = info["id"]
        request(f"{base_url}/v1/sessions/{sid}/advance", "POST",
                {"minute": 5})
        status, text = request(
            f"{base_url}/v1/sessions/{sid}/metrics", raw=True
        )
        assert status == 200
        assert b"# TYPE" in text

    def test_metrics_409_when_telemetry_off(self, base_url):
        spec = dict(SYNTH_SPEC, observe=False)
        _, info = request(f"{base_url}/v1/sessions", "POST", spec)
        status, _ = request(
            f"{base_url}/v1/sessions/{info['id']}/metrics"
        )
        assert status == 409

    def test_decisions_filtering(self, base_url):
        _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
        sid = info["id"]
        request(f"{base_url}/v1/sessions/{sid}/advance", "POST",
                {"minute": 20})
        _, body = request(f"{base_url}/v1/sessions/{sid}/decisions")
        records = body["decisions"]
        assert records and all("kind" in r for r in records)
        fid = next(r["fid"] for r in records if "fid" in r)
        _, body = request(
            f"{base_url}/v1/sessions/{sid}/decisions?fid={fid}"
        )
        assert body["decisions"]
        assert all(r["fid"] == fid for r in body["decisions"])
        _, body = request(
            f"{base_url}/v1/sessions/{sid}/decisions?kind=plan"
        )
        assert all(r["kind"] == "plan" for r in body["decisions"])


def _document(base_url, minute=11):
    """Create a SYNTH_SPEC session, advance it through ``minute`` and
    return its inputs document as parsed JSON."""
    _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
    request(f"{base_url}/v1/sessions/{info['id']}/advance", "POST",
            {"minute": minute})
    _, payload = request(
        f"{base_url}/v1/sessions/{info['id']}/snapshot", raw=True
    )
    return json.loads(payload)


def _restore(base_url, document):
    body = document if isinstance(document, bytes) else json.dumps(
        document
    ).encode()
    return request(f"{base_url}/v1/sessions/restore", "POST", body)


class TestSnapshotRestore:
    """``GET .../snapshot`` returns the inputs document and
    ``POST /v1/sessions/restore`` rebuilds from one; anything else is a
    400, and nothing on this path is unpickled."""

    def test_snapshot_restore_over_http(self, base_url):
        _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
        sid = info["id"]
        request(f"{base_url}/v1/sessions/{sid}/advance", "POST",
                {"minute": 11})
        status, payload = request(
            f"{base_url}/v1/sessions/{sid}/snapshot", raw=True
        )
        assert status == 200
        # The wire form is the session's inputs: plain JSON holding the
        # spec and the advances, parsed by the document codec.
        document = json.loads(payload)
        assert document["format"] == INPUTS_FORMAT
        assert document["spec"] == SYNTH_SPEC
        assert document["records"] == [{"minute": 11, "invocations": None}]
        assert SessionInputs.from_json(payload).next_minute == 12

        status, restored = request(
            f"{base_url}/v1/sessions/restore", "POST", payload
        )
        assert status == 200
        assert restored["id"] != sid
        assert restored["next_minute"] == 12

        # Both copies finish to the same summary.
        for s in (sid, restored["id"]):
            request(f"{base_url}/v1/sessions/{s}/advance", "POST",
                    {"minute": 47})
        _, a = request(f"{base_url}/v1/sessions/{sid}/result")
        _, b = request(f"{base_url}/v1/sessions/{restored['id']}/result")
        a.pop("wall_clock_s", None)
        b.pop("wall_clock_s", None)
        assert a == b

    def test_restore_session_fast_400(self, base_url):
        document = _document(base_url)
        document["spec"]["engine"] = "fast"
        status, body = _restore(base_url, document)
        assert status == 400
        assert "'fast'" in body["error"]
        assert "reference, fleet" in body["error"]

    def test_restore_v7_snapshot_400(self, base_url):
        # Pickled session snapshots (any checkpoint schema, here v7) are
        # refused by format, before anything is unpickled.
        legacy = SimulationState(
            "session:reference", 0, (), pickle.dumps({}), schema_version=7
        )
        status, body = _restore(base_url, legacy.to_wire_json().encode())
        assert status == 400
        assert "v1 session snapshot" in body["error"]
        assert "never unpickled" in body["error"]

    def test_restore_garbage_400(self, base_url):
        for payload in (
            b"not json at all",
            json.dumps({"format": "something-else"}).encode(),
            json.dumps({"format": INPUTS_FORMAT, "v": 2}).encode(),
        ):
            status, body = _restore(base_url, payload)
            assert status == 400, payload
            assert "error" in body

    @pytest.mark.parametrize(
        "edits",
        [{"minute": [3]}, {"minute": 2.7}, {"invocations": {"0": [1]}},
         {"note": "x"}],
        ids=["next-minute-list", "next-minute-float", "cursor-nested",
             "extra-key"],
    )
    def test_restore_crafted_header_400(self, base_url, edits):
        # A well-formed document whose advance record the codec never
        # writes: refused before the session replays anything.
        document = _document(base_url)
        document["records"][0].update(edits)
        status, body = _restore(base_url, document)
        assert status == 400, body
        assert body["error"].startswith("inputs record 0:")

    @pytest.mark.parametrize(
        "drop", ["records", "spec", None],
        ids=["no-live", "no-meta", "not-a-dict"],
    )
    def test_restore_misshapen_session_payload_400(self, base_url, drop):
        document = _document(base_url)
        if drop is None:
            payload = [document]
        else:
            payload = {k: v for k, v in document.items() if k != drop}
        status, body = _restore(base_url, payload)
        assert status == 400, body
        assert "inputs document" in body["error"]
        if drop is not None:
            assert f"missing keys: {drop}" in body["error"]

    def test_restore_unpicklable_payload_400(self, base_url):
        # Raw pickle bytes are not a document; they are never loaded.
        status, body = _restore(base_url, pickle.dumps({"records": []}))
        assert status == 400, body
        assert "undecodable inputs document" in body["error"]

    def test_restore_rejects_tampered_payload(self, base_url):
        document = _document(base_url, minute=3)
        for tampered in (
            dict(document, fingerprint="0" * 64),
            dict(document, spec=dict(SYNTH_SPEC, seed=4)),
        ):
            status, body = _restore(base_url, tampered)
            assert status == 400
            assert "fingerprint" in body["error"]

    def test_restore_refuses_a_record_the_session_refuses(self, base_url):
        document = _document(base_url)
        document["records"].append({"minute": 5, "invocations": None})
        status, body = _restore(base_url, document)
        assert status == 400
        assert "already executed" in body["error"]


FAULTY_ENGINE_SPECS = [
    pytest.param(engine, id=engine) for engine in ("reference", "fleet")
]


class TestFaultPlanRestore:
    """Snapshot→restore over HTTP under an active FaultPlan: the
    rebuilt session replays the plan's spawn failures exactly, on every
    engine."""

    @pytest.mark.parametrize("engine", FAULTY_ENGINE_SPECS)
    def test_roundtrip_under_faults(self, base_url, engine):
        spec = {
            "synthetic": {"n_functions": 5, "horizon_minutes": 36, "seed": 9},
            "policy": "pulse",
            "engine": engine,
            "faults": "seed=7,spawn=0.2,slow=0.1",
        }
        _, info = request(f"{base_url}/v1/sessions", "POST", spec)
        sid = info["id"]
        request(f"{base_url}/v1/sessions/{sid}/advance", "POST",
                {"minute": 17})
        _, payload = request(
            f"{base_url}/v1/sessions/{sid}/snapshot", raw=True
        )
        status, restored = request(
            f"{base_url}/v1/sessions/restore", "POST", payload
        )
        assert status == 200
        rid = restored["id"]
        assert restored["next_minute"] == 18

        for s in (sid, rid):
            request(f"{base_url}/v1/sessions/{s}/advance", "POST",
                    {"minute": 35})
        _, a = request(f"{base_url}/v1/sessions/{sid}/result")
        _, b = request(f"{base_url}/v1/sessions/{rid}/result")
        a.pop("wall_clock_s", None)
        b.pop("wall_clock_s", None)
        assert a == b
        # Fault injection visibly happened (spawn=0.2 over 36 minutes)
        # and both copies agree decision-for-decision.
        _, da = request(f"{base_url}/v1/sessions/{sid}/decisions")
        _, db = request(f"{base_url}/v1/sessions/{rid}/decisions")
        assert [d for d in da["decisions"] if d["t"] >= 18] == [
            d for d in db["decisions"] if d["t"] >= 18
        ]


class TestAuth:
    def test_token_required_everywhere_but_probes(self):
        with running_server(token="hunter2") as (url, _server):
            for path in ("/v1/healthz", "/v1/readyz"):
                status, _ = request(f"{url}{path}")
                assert status == 200, path
            status, body = request(f"{url}/v1/sessions")
            assert status == 401
            assert "bearer" in body["error"].lower()
            status, _ = request(
                f"{url}/v1/sessions",
                headers={"Authorization": "Bearer wrong"},
            )
            assert status == 401
            status, body = request(
                f"{url}/v1/sessions",
                headers={"Authorization": "Bearer hunter2"},
            )
            assert (status, body) == (200, {"sessions": []})

    def test_serve_refuses_non_loopback_without_token(self):
        from repro.serve.app import serve

        with pytest.raises(SystemExit, match="--token"):
            serve("0.0.0.0", port=0)


class TestBackpressure:
    def test_session_table_full_503(self):
        limits = ServeLimits(max_sessions=1, retry_after_s=7.0)
        with running_server(limits=limits) as (url, _server):
            status, _ = request(f"{url}/v1/sessions", "POST", SYNTH_SPEC)
            assert status == 200
            req = urllib.request.Request(
                f"{url}/v1/sessions", data=json.dumps(SYNTH_SPEC).encode(),
                method="POST", headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req, timeout=10)
            assert exc_info.value.code == 503
            assert exc_info.value.headers["Retry-After"] == "7"

    def test_inflight_gate_429(self):
        manager = SessionManager(limits=ServeLimits(max_inflight=1))
        sid = manager.create(dict(SYNTH_SPEC))["id"]
        managed = manager._get(sid)
        assert managed.gate.acquire(blocking=False)  # simulate in-flight
        try:
            with pytest.raises(ApiError) as exc_info:
                manager.advance(sid, {})
            assert exc_info.value.status == 429
            assert exc_info.value.retry_after is not None
        finally:
            managed.gate.release()
        assert manager.advance(sid, {})["minute"] == 0
        manager.close_all()

    def test_deadline_503_when_session_stays_busy(self):
        manager = SessionManager(limits=ServeLimits(deadline_s=0.05))
        sid = manager.create(dict(SYNTH_SPEC))["id"]
        managed = manager._get(sid)
        with managed.lock:  # a stuck advance holds the session lock
            with pytest.raises(ApiError) as exc_info:
                manager.advance(sid, {})
        assert exc_info.value.status == 503
        assert "deadline" in str(exc_info.value)
        manager.close_all()


class TestBodyHardening:
    def test_oversized_body_413(self):
        limits = ServeLimits(max_body_bytes=64)
        with running_server(limits=limits) as (url, _server):
            big = {"synthetic": {"n_functions": 4}, "policy": "x" * 256}
            status, body = request(f"{url}/v1/sessions", "POST", big)
            assert status == 413
            assert "exceeds" in body["error"]

    def test_truncated_body_400(self):
        with running_server(
            limits=ServeLimits(read_timeout_s=0.5)
        ) as (url, _server):
            host, port = url.removeprefix("http://").split(":")
            with socket.create_connection(
                (host, int(port)), timeout=10
            ) as sock:
                # Promise 100 bytes, send 10, half-close: the server
                # must answer a structured 400, not hang the worker.
                sock.sendall(
                    b"POST /v1/sessions HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n" + b"{" + b"x" * 9
                )
                sock.shutdown(socket.SHUT_WR)
                reply = b""
                while b"truncated" not in reply:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    reply += chunk
            assert b"400" in reply.split(b"\r\n", 1)[0]
            assert b"truncated" in reply

    def test_bad_content_length_400(self):
        with running_server() as (url, _server):
            host, port = url.removeprefix("http://").split(":")
            with socket.create_connection(
                (host, int(port)), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/sessions HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Length: banana\r\n\r\n"
                )
                reply = sock.recv(65536)
            assert b"400" in reply.split(b"\r\n", 1)[0]


class _RecordingWriter:
    """A handler's socket writer that logs each ``write`` (one
    ``sendall`` on the socket) before passing it on."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestTransport:
    def test_keepalive_responses_are_one_send_on_a_nodelay_socket(self):
        """Each response on a keep-alive connection leaves in a single
        write, and the accepted socket has TCP_NODELAY set, so no
        response waits on the client's delayed ACK."""
        with running_server() as (url, server):
            nodelay, writes = [], []

            class Recording(server.RequestHandlerClass):
                def setup(self):
                    super().setup()
                    nodelay.append(self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    ))
                    self.wfile = _RecordingWriter(self.wfile, writes)

            server.RequestHandlerClass = Recording
            host, port = url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            try:
                bodies = []
                for path in ("/v1/healthz", "/v1/nope", "/v1/healthz"):
                    conn.request("GET", path)
                    bodies.append(conn.getresponse().read())
            finally:
                conn.close()
        assert len(nodelay) == 1 and nodelay[0] != 0  # one connection
        assert len(writes) == len(bodies)
        for sent, body in zip(writes, bodies):
            assert sent.startswith(b"HTTP/1.1 ")
            assert sent.endswith(b"\r\n\r\n" + body)


def _exchange(url, data, *, then=None):
    """Send raw bytes on one connection and read until the server closes
    it; ``then`` (bytes) is sent once the first reply bytes arrive."""
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(data)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk
            if then is not None and b"\r\n\r\n" in reply:
                sock.sendall(then)
                then = None


def _responses(data):
    """Split a byte stream into (status, headers, body) responses."""
    out = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        fields = (line.partition(":") for line in lines[1:])
        headers = {k.lower(): v.strip() for k, _, v in fields}
        n = int(headers.get("content-length", 0))
        out.append((int(lines[0].split()[1]), headers, data[:n]))
        data = data[n:]
    return out


class TestOwnedTransport:
    """The server's own HTTP/1.1 request loop: framing, keep-alive
    rules and transport errors in the API's JSON shape."""

    def test_pipelined_requests_answered_in_order(self):
        with running_server() as (url, _server):
            reply = _exchange(
                url,
                b"GET /v1/readyz HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n",
            )
        (s1, h1, b1), (s2, h2, b2) = _responses(reply)
        assert (s1, json.loads(b1)) == (200, {"status": "ready"})
        assert (s2, json.loads(b2)) == (200, {"status": "ok"})
        assert "connection" not in h1
        assert h2["connection"] == "close"
        assert h1["date"].endswith(" GMT")

    @pytest.mark.parametrize("request_head", [
        b"GET /v1/healthz HTTP/1.0\r\n\r\n",
        b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    ], ids=["http10", "connection-close"])
    def test_connection_closes_after_the_response(self, request_head):
        with running_server() as (url, _server):
            # The second request is never read: the server closes first.
            reply = _exchange(url, request_head + request_head)
        [(status, headers, body)] = _responses(reply)
        assert (status, json.loads(body)) == (200, {"status": "ok"})
        assert headers["connection"] == "close"

    def test_http10_keep_alive_stays_open(self):
        with running_server() as (url, _server):
            reply = _exchange(
                url,
                b"GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                b"GET /v1/healthz HTTP/1.0\r\n\r\n",
            )
        assert [r[0] for r in _responses(reply)] == [200, 200]

    def test_lower_case_authorization_header(self):
        with running_server(token="hunter2") as (url, _server):
            reply = _exchange(
                url,
                b"GET /v1/sessions HTTP/1.1\r\n"
                b"authorization: Bearer hunter2\r\nconnection: close\r\n\r\n",
            )
        [(status, _, body)] = _responses(reply)
        assert (status, json.loads(body)) == (200, {"sessions": []})

    def test_unauthorized_request_with_a_body_closes(self):
        with running_server(token="hunter2") as (url, _server):
            reply = _exchange(
                url,
                b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 2\r\n\r\n"
                b"{}",
            )
        [(status, headers, body)] = _responses(reply)
        assert status == 401
        assert headers["www-authenticate"] == "Bearer"
        assert headers["connection"] == "close"
        assert json.loads(body)["status"] == 401

    @pytest.mark.parametrize("request_head, status, needle", [
        (b"GET /v1/healthz HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n",
         431, "headers"),
        (b"GET /v1/healthz HTTP/1.1\r\n" + b"X-H: v\r\n" * 101 + b"\r\n",
         431, "headers"),
        (b"GET /v1/healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000
         + b"\r\n\r\n", 431, "header line"),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414,
         "request line"),
        (b"GARBAGE\r\n\r\n", 400, "malformed request line"),
        (b"GET /v1/healthz SPDY/3\r\n\r\n", 400, "malformed request line"),
        (b"GET /v1/healthz HTTP/2.0\r\n\r\n", 505, "version"),
        (b"GET /v1/healthz HTTP/1.1\r\nno-colon-here\r\n\r\n", 400,
         "malformed header"),
        (b"PUT /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 501,
         "no route PUT"),
    ], ids=["too-many-headers", "repeated-header", "long-header", "long-request-line",
            "bad-request-line", "bad-version", "http2", "bad-header",
            "unknown-method"])
    def test_transport_errors_are_json(self, request_head, status, needle):
        with running_server() as (url, _server):
            reply = _exchange(url, request_head)
        (got, headers, body), *_ = _responses(reply)
        assert got == status
        assert headers["content-type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == status
        assert needle in payload["error"]

    def test_transfer_encoding_is_refused_and_closes(self):
        """A chunked body cannot be framed: 501, and the request
        pipelined behind it is never read."""
        with running_server() as (url, _server):
            reply = _exchange(
                url,
                b"POST /v1/sessions HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
                b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            )
        [(status, headers, body)] = _responses(reply)
        assert status == 501
        assert headers["connection"] == "close"
        assert "Transfer-Encoding" in json.loads(body)["error"]

    def test_expect_100_continue(self):
        body = json.dumps(SYNTH_SPEC).encode()
        with running_server() as (url, _server):
            reply = _exchange(
                url,
                b"POST /v1/sessions HTTP/1.1\r\nHost: x\r\n"
                b"Expect: 100-continue\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body),
                then=body,
            )
        assert reply.startswith(b"HTTP/1.1 100 Continue\r\n\r\n")
        [(status, _, payload)] = _responses(
            reply.removeprefix(b"HTTP/1.1 100 Continue\r\n\r\n")
        )
        assert status == 200
        assert json.loads(payload)["id"] == "s1"

    def test_route_shapes(self, base_url):
        _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
        sid = info["id"]
        for path in (f"/v1/sessions/{sid}/", f"/v1/sessions/{sid}/metrics/x",
                     "/v1/sessions/a.b", "/v1/healthz/"):
            status, body = request(f"{base_url}{path}")
            assert (status, body["status"]) == (404, 404), path
        status, body = request(
            f"{base_url}/v1/sessions/{sid}/decisions?fid=one"
        )
        assert (status, body["error"]) == (400, "bad fid: 'one'")
        status, body = request(f"{base_url}/v1/healthz?probe=1")
        assert (status, body) == (200, {"status": "ok"})


_LEAN_PROBE = """
import json, socket, sys, threading
import repro.cli
from repro.serve.app import make_server

server = make_server("127.0.0.1", port=0)
threading.Thread(target=server.serve_forever, daemon=True).start()
body = json.dumps({"meta": {"n_functions": 4, "horizon_minutes": 8}}).encode()
with socket.create_connection(server.server_address, timeout=10) as sock:
    sock.sendall(
        b"POST /v1/sessions HTTP/1.1\\r\\nConnection: close\\r\\n"
        b"Content-Length: %d\\r\\n\\r\\n%s" % (len(body), body)
    )
    reply = b""
    while chunk := sock.recv(65536):
        reply += chunk
server.shutdown()
print(json.dumps({
    "status": reply.split()[1].decode(),
    "loaded": sorted(m for m in ("scipy", "email", "http.client",
                                 "http.server") if m in sys.modules),
}))
"""


class TestLeanProcess:
    def test_cli_and_a_meta_session_load_no_scipy_or_email(self):
        """``repro serve``'s process stays lean: the CLI module, an
        online session and the request loop never import scipy (the
        experiments) or the stdlib's email-based header parser."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", _LEAN_PROBE], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout
        assert json.loads(out.splitlines()[-1]) == {
            "status": "200", "loaded": [],
        }


class TestDrainAndReadiness:
    def test_readyz_flips_on_drain(self):
        with running_server() as (url, server):
            status, body = request(f"{url}/v1/readyz")
            assert (status, body) == (200, {"status": "ready"})
            server.manager.drain()
            status, body = request(f"{url}/v1/readyz")
            assert status == 503
            # Liveness stays green while draining; new work is refused.
            status, _ = request(f"{url}/v1/healthz")
            assert status == 200
            status, _ = request(f"{url}/v1/sessions", "POST", SYNTH_SPEC)
            assert status == 503

    def test_drain_refuses_advances_and_stops_tickers(self):
        manager = SessionManager()
        sid = manager.create(dict(SYNTH_SPEC))["id"]
        manager.tick(sid, {"action": "start", "interval_ms": 60_000})
        manager.drain()
        assert manager.draining
        assert manager.info(sid)["ticking"] is False
        with pytest.raises(ApiError) as exc_info:
            manager.advance(sid, {})
        assert exc_info.value.status == 503
        manager.drain()  # idempotent
        manager.close_all()


class TestCloseIdempotency:
    def test_double_close_direct(self):
        manager = SessionManager()
        sid = manager.create(dict(SYNTH_SPEC))["id"]
        assert manager.close(sid)["closed"] is True
        with pytest.raises(ApiError):
            manager.close(sid)
        assert manager.close(sid, missing_ok=True)["closed"] is False
        manager.close_all()
        manager.close_all()  # close_all after close_all is a no-op

    def test_signal_handler_racing_http_delete(self):
        """close_all (the shutdown path) racing per-session DELETEs:
        every session is closed exactly once and nothing raises."""
        manager = SessionManager()
        sids = [manager.create(dict(SYNTH_SPEC))["id"] for _ in range(8)]
        for sid in sids[::2]:
            manager.tick(sid, {"action": "start", "interval_ms": 60_000})
        errors: list[BaseException] = []

        def deleter():
            try:
                for sid in sids:
                    manager.close(sid, missing_ok=True)
            except BaseException as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=deleter) for _ in range(4)]
        threads.append(threading.Thread(target=manager.close_all))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert manager.list() == []


class TestOnlineAndTick:
    def test_online_session_invocations(self, base_url):
        spec = {"meta": {"n_functions": 4, "horizon_minutes": 20}}
        _, info = request(f"{base_url}/v1/sessions", "POST", spec)
        sid = info["id"]
        assert info["online"]
        status, step = request(
            f"{base_url}/v1/sessions/{sid}/advance", "POST",
            {"invocations": {"1": 2, "3": 1}},
        )
        assert status == 200
        assert step["n_invocations"] == 3

    def test_tick_runs_to_horizon(self, base_url):
        spec = {
            "synthetic": {
                "n_functions": 4, "horizon_minutes": 24, "seed": 5
            }
        }
        _, info = request(f"{base_url}/v1/sessions", "POST", spec)
        sid = info["id"]
        status, info = request(
            f"{base_url}/v1/sessions/{sid}/tick", "POST",
            {"action": "start", "interval_ms": 0},
        )
        assert status == 200
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, info = request(f"{base_url}/v1/sessions/{sid}")
            if info["done"]:
                break
            time.sleep(0.05)
        assert info["done"], info
        assert info["tick_error"] is None
        status, _ = request(f"{base_url}/v1/sessions/{sid}/result")
        assert status == 200

    def test_double_start_is_409(self, base_url):
        _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
        sid = info["id"]
        request(f"{base_url}/v1/sessions/{sid}/tick", "POST",
                {"action": "start", "interval_ms": 60_000})
        status, body = request(
            f"{base_url}/v1/sessions/{sid}/tick", "POST",
            {"action": "start"},
        )
        assert status == 409
        status, info = request(
            f"{base_url}/v1/sessions/{sid}/tick", "POST",
            {"action": "stop"},
        )
        assert status == 200
        assert not info["ticking"]


class TestManagerDirect:
    """SessionManager behaviors not worth an HTTP round trip."""

    def test_spec_builder_defaults_observe_on(self):
        session = open_session_from_spec(dict(SYNTH_SPEC))
        assert session.stepper.obs is not None

    def test_manager_ids_are_sequential(self):
        manager = SessionManager()
        a = manager.create(dict(SYNTH_SPEC))
        b = manager.create(dict(SYNTH_SPEC))
        assert (a["id"], b["id"]) == ("s1", "s2")
        manager.close_all()
        assert manager.list() == []

    def test_api_error_carries_status(self):
        with pytest.raises(ApiError) as exc_info:
            SessionManager().info("missing")
        assert exc_info.value.status == 404


class TestAdvanceBodies:
    """Advance bodies are parsed once at the boundary: a malformed one
    answers 400 and nothing is journaled."""

    @pytest.mark.parametrize(
        "body",
        [{"invocations": {"x": 1}}, [], {"minute": "x"},
         {"invocations": {"0": True}}],
        ids=["fid-not-decimal", "array-body", "minute-string",
             "bool-count"],
    )
    def test_malformed_body_is_400_and_not_journaled(self, tmp_path, body):
        manager = SessionManager(journal=JournalSupervisor(tmp_path))
        sid = manager.create(dict(SYNTH_SPEC))["id"]
        journal = manager._get(sid).journal
        assert journal is not None
        header = journal.path.read_bytes()
        with pytest.raises(ApiError) as exc_info:
            manager.advance(sid, body)
        assert exc_info.value.status == 400
        assert journal.path.read_bytes() == header
        assert manager.info(sid)["next_minute"] == 0
        manager.close_all()
