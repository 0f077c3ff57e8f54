"""The HTTP serving layer (:mod:`repro.serve.app`).

These tests run the stdlib ``ThreadingHTTPServer`` transport — the one
that works in every environment — on an ephemeral loopback port and
drive it with :mod:`urllib`.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runtime.checkpoint import WIRE_FORMAT, SimulationState
from repro.serve.app import (
    ApiError,
    ServeLimits,
    SessionManager,
    make_server,
    open_session_from_spec,
)

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


class TestSnapshotRestore:
    def test_snapshot_restore_over_http(self, base_url):
        _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
        sid = info["id"]
        request(f"{base_url}/v1/sessions/{sid}/advance", "POST",
                {"minute": 11})
        status, payload = request(
            f"{base_url}/v1/sessions/{sid}/snapshot", raw=True
        )
        assert status == 200
        # The wire form is a JSON envelope, not a pickle stream: it is
        # inspectable as plain JSON and decodes through the codec.
        envelope = json.loads(payload)
        assert envelope["format"] == WIRE_FORMAT
        assert isinstance(
            SimulationState.from_wire_json(payload), SimulationState
        )

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

    def test_restore_garbage_400(self, base_url):
        for payload in (
            b"not json at all",
            json.dumps({"format": "something-else"}).encode(),
            json.dumps({"format": WIRE_FORMAT}).encode(),  # missing keys
        ):
            status, body = request(
                f"{base_url}/v1/sessions/restore", "POST", payload
            )
            assert status == 400, payload
            assert "error" in body

    def test_restore_rejects_tampered_payload(self, base_url):
        _, info = request(f"{base_url}/v1/sessions", "POST", SYNTH_SPEC)
        sid = info["id"]
        request(f"{base_url}/v1/sessions/{sid}/advance", "POST",
                {"minute": 3})
        _, payload = request(
            f"{base_url}/v1/sessions/{sid}/snapshot", raw=True
        )
        envelope = json.loads(payload)
        envelope["payload_b64"] = envelope["payload_b64"][:-8] + "AAAAAAA="
        status, body = request(
            f"{base_url}/v1/sessions/restore", "POST",
            json.dumps(envelope).encode(),
        )
        assert status == 400
        assert "sha" in body["error"].lower() or "payload" in body["error"]


FAULTY_ENGINE_SPECS = [
    pytest.param(engine, id=engine) for engine in ("reference", "fast", "fleet")
]


class TestFaultPlanRestore:
    """Snapshot→restore over HTTP under an active FaultPlan: the plan's
    spawn failures and its trace-perturbation handshake must survive
    the wire round trip on every engine."""

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
