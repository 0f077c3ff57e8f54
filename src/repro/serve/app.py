"""Async serving layer: multi-tenant HTTP control plane over sessions.

:class:`SessionManager` is the framework-agnostic core — a registry of
named :class:`~repro.serve.session.ControlSession` instances, each with
its own lock (advances serialize per session, tenants run concurrently)
and an optional auto-tick thread that drives ``advance()`` on a wall-
clock cadence. The HTTP layer is a thin JSON translation over it:

==========  =====================================  ========================
``GET``     ``/v1/healthz``                        liveness probe (no auth)
``GET``     ``/v1/readyz``                         readiness (503 draining)
``GET``     ``/v1/sessions``                       list open sessions
``POST``    ``/v1/sessions``                       open (JSON spec body)
``POST``    ``/v1/sessions/restore``               reopen from a snapshot
``GET``     ``/v1/sessions/{id}``                  session info
``DELETE``  ``/v1/sessions/{id}``                  close (stops its ticker)
``POST``    ``/v1/sessions/{id}/advance``          execute one minute
``POST``    ``/v1/sessions/{id}/tick``             start/stop auto-tick
``GET``     ``/v1/sessions/{id}/metrics``          Prometheus exposition
``GET``     ``/v1/sessions/{id}/snapshot``         JSON snapshot envelope
``GET``     ``/v1/sessions/{id}/decisions?fid=``   decision-trace records
``GET``     ``/v1/sessions/{id}/result``           final RunResult summary
==========  =====================================  ========================

The one transport is the **stdlib** server (:func:`make_server`,
``http.server.ThreadingHTTPServer``): it has no dependencies, and it is
what the test suite and ``repro serve`` exercise.

Production hardening lives here too:

- **Snapshots cross the wire as versioned JSON envelopes**
  (:meth:`~repro.runtime.checkpoint.SimulationState.to_wire_json` —
  sha256-checked, schema-pinned by RPR010), not raw pickles, so the
  bytes are inspectable and integrity-checked in transit. The payload
  still deserializes engine state, so non-loopback binds additionally
  require a **bearer token** (:func:`serve` refuses to start without
  one; requests without it get 401).
- **Backpressure**: a full session table or a drained server answers
  503, a session already at its in-flight cap answers 429, and a
  per-request deadline on the session lock answers 503 — all with
  ``Retry-After`` (:class:`ServeLimits` holds the knobs).
- **Crash durability**: give the manager a
  :class:`~repro.serve.journal.JournalSupervisor` and every advance is
  write-ahead journaled with periodic snapshot compaction;
  :meth:`SessionManager.recover` rebuilds all tenants bit-identically
  after a SIGKILL. SIGTERM triggers a graceful drain: tickers stop,
  in-flight advances finish, every session is snapshotted and fsynced,
  and the process exits 0.
"""

from __future__ import annotations

import hmac
import json
import re
import signal
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable

from repro.obs.export import render_prometheus
from repro.runtime.checkpoint import SimulationState
from repro.serve.journal import JournalSupervisor, SessionJournal
from repro.serve.session import ControlSession, TraceMeta, open_session

__all__ = [
    "ApiError",
    "ServeLimits",
    "SessionManager",
    "make_server",
    "open_session_from_spec",
    "serve",
]

#: Paths every probe (load balancer, kubelet) may hit without a token.
_UNAUTHENTICATED_PATHS = frozenset({"/v1/healthz", "/v1/readyz"})


@dataclass(frozen=True)
class ServeLimits:
    """Admission-control knobs for one server.

    ``max_sessions`` bounds the registry (creates/restores past it get
    503); ``max_inflight`` bounds queued advances per session (429 past
    it); ``deadline_s`` bounds how long one request may wait on a
    session's lock (503 past it); ``max_body_bytes`` bounds request
    bodies (413 past it); ``read_timeout_s`` bounds socket reads so a
    stalled client cannot pin a worker thread; ``retry_after_s`` is the
    hint sent with every backpressure response.
    """

    max_sessions: int = 64
    max_inflight: int = 4
    deadline_s: float = 30.0
    max_body_bytes: int = 8 * 1024 * 1024
    read_timeout_s: float = 30.0
    retry_after_s: float = 1.0


class ApiError(Exception):
    """A request error with an HTTP status (the transports map it).

    ``retry_after`` (seconds) is attached to backpressure responses
    (429/503) and becomes a ``Retry-After`` header on the wire.
    """

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def open_session_from_spec(spec: dict) -> ControlSession:
    """Build a session from a JSON-shaped spec (the POST body).

    The workload is either ``{"synthetic": {...}}`` — kwargs for
    :class:`~repro.traces.synthetic.SyntheticTraceConfig` plus an
    optional ``n_functions`` — giving a replay-mode session over a
    generated trace, or ``{"meta": {"n_functions": N,
    "horizon_minutes": H}}`` for an online session whose invocations
    arrive per ``advance()`` call. Remaining keys mirror
    :func:`~repro.serve.session.open_session`: ``policy``, ``engine``,
    ``faults``, ``observe`` (default **true** here — the
    metrics and decisions endpoints need telemetry), ``seed``.
    """
    if not isinstance(spec, dict):
        raise ApiError(400, "session spec must be a JSON object")
    known = {
        "synthetic", "meta", "policy", "engine", "faults", "observe",
        "seed",
    }
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ApiError(
            400,
            f"unknown session spec keys: {', '.join(unknown)} "
            f"(expected some of: {', '.join(sorted(known))})",
        )
    if ("synthetic" in spec) == ("meta" in spec):
        raise ApiError(
            400,
            "session spec needs exactly one workload: 'synthetic' "
            "(replay a generated trace) or 'meta' (online invocations)",
        )
    try:
        if "meta" in spec:
            workload: Any = TraceMeta(**spec["meta"])
        else:
            from repro.traces.synthetic import (
                SyntheticTraceConfig,
                generate_trace,
            )

            workload = generate_trace(SyntheticTraceConfig(**spec["synthetic"]))
        return open_session(
            workload,
            policy=spec.get("policy", "pulse"),
            engine=spec.get("engine", "auto"),
            faults=spec.get("faults"),
            observe=spec.get("observe", True),
            seed=spec.get("seed", 0),
        )
    except ApiError:
        raise
    except (TypeError, ValueError) as exc:
        raise ApiError(400, str(exc)) from exc


class _Ticker:
    """Background thread driving one session's ``advance()`` on a
    wall-clock cadence until the horizon, a stop, or an error."""

    def __init__(self, managed: "_ManagedSession", interval_s: float) -> None:
        self.interval_s = interval_s
        self.error: str | None = None
        self._managed = managed
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"tick-{managed.sid}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        managed = self._managed
        while not self._stop.is_set():
            with managed.lock:
                if managed.session.done:
                    break
                try:
                    managed.step(None, None)
                except Exception as exc:  # repro: lint-ok[RPR006] tick thread's crash-isolation boundary: the failure is recorded as self.error, surfaced via session info, and the thread exits its loop — raising here would kill a daemon thread silently instead
                    self.error = str(exc)
                    break
            self._stop.wait(self.interval_s)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return self._thread.is_alive()


class _ManagedSession:
    def __init__(
        self,
        sid: str,
        session: ControlSession,
        *,
        max_inflight: int = 4,
        journal: SessionJournal | None = None,
    ) -> None:
        self.sid = sid
        self.session = session
        self.lock = threading.Lock()
        self.gate = threading.BoundedSemaphore(max_inflight)
        self.journal = journal
        self.ticker: _Ticker | None = None
        self.n_advances = 0

    def step(
        self, minute: int | None, invocations: dict[int, int] | None
    ) -> Any:
        """Execute one advance — journal record first, then the engine.

        The caller holds ``self.lock`` (every call site acquires it;
        a timed acquire cannot be a lexical ``with``)."""
        if self.journal is not None:
            self.journal.record_advance(
                self.session.next_minute if minute is None else minute,
                invocations,
            )
        result = self.session.advance(minute, invocations)
        self.n_advances += 1  # repro: lint-ok[RPR008] caller holds self.lock — step() is only invoked with the session lock held (see advance()/_Ticker._run)
        if self.journal is not None:
            self.journal.maybe_compact(self.session)
        return result


class SessionManager:
    """The multi-tenant registry both transports route into.

    Every operation takes the target session's lock, so concurrent
    requests against one session serialize (the engines are single-
    threaded by design) while different tenants advance in parallel.
    ``limits`` adds admission control; ``journal`` adds write-ahead
    durability (see :mod:`repro.serve.journal`).
    """

    def __init__(
        self,
        *,
        limits: ServeLimits | None = None,
        journal: JournalSupervisor | None = None,
    ) -> None:
        self.limits = limits if limits is not None else ServeLimits()
        self._journal = journal
        self._sessions: dict[str, _ManagedSession] = {}
        self._registry_lock = threading.Lock()
        self._next_id = 0
        self._draining = threading.Event()

    # -- registry ----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def journaled(self) -> bool:
        return self._journal is not None

    def _register(
        self, session: ControlSession, *, spec: dict | None = None
    ) -> dict:
        with self._registry_lock:
            if self._draining.is_set():
                raise ApiError(
                    503, "server is draining",
                    retry_after=self.limits.retry_after_s,
                )
            if len(self._sessions) >= self.limits.max_sessions:
                raise ApiError(
                    503,
                    f"session table full ({self.limits.max_sessions}); "
                    "close a session or retry later",
                    retry_after=self.limits.retry_after_s,
                )
            self._next_id += 1
            sid = f"s{self._next_id}"
            journal = (
                self._journal.create(sid, spec, session)
                if self._journal is not None
                else None
            )
            self._sessions[sid] = _ManagedSession(
                sid,
                session,
                max_inflight=self.limits.max_inflight,
                journal=journal,
            )
        return self.info(sid)

    def create(self, spec: dict) -> dict:
        return self._register(open_session_from_spec(spec), spec=spec)

    def restore(self, payload: bytes) -> dict:
        """Reopen a session from a JSON snapshot envelope (the body a
        ``/snapshot`` GET returned)."""
        try:
            state = SimulationState.from_wire_json(payload.decode("utf-8"))
        except ValueError as exc:
            raise ApiError(400, f"undecodable snapshot payload: {exc}") from exc
        try:
            return self._register(ControlSession.restore(state), spec=None)
        except ValueError as exc:
            raise ApiError(400, str(exc)) from exc

    def recover(self) -> list[dict]:
        """Rebuild every session the journal directory holds (after a
        crash or a drain) and register them under their original ids.

        Returns the recovered sessions' info dicts. Raises
        :class:`~repro.serve.journal.JournalError` on unrecoverable
        state — silently dropping a tenant would defeat the journal.
        """
        if self._journal is None:
            raise ValueError("recover() needs a manager with a journal")
        out: list[dict] = []
        for sid in self._journal.discover():
            session, journal = self._journal.recover(sid)
            with self._registry_lock:
                if sid.startswith("s") and sid[1:].isdigit():
                    self._next_id = max(self._next_id, int(sid[1:]))
                self._sessions[sid] = _ManagedSession(
                    sid,
                    session,
                    max_inflight=self.limits.max_inflight,
                    journal=journal,
                )
            out.append(self.info(sid))
        return out

    def _get(self, sid: str) -> _ManagedSession:
        with self._registry_lock:
            try:
                return self._sessions[sid]
            except KeyError:
                raise ApiError(404, f"no session {sid!r}") from None

    def list(self) -> list[dict]:
        with self._registry_lock:
            sids = sorted(self._sessions)
        out: list[dict] = []
        for sid in sids:
            try:
                out.append(self.info(sid))
            except ApiError:
                continue  # closed between the snapshot and the read-out
        return out

    def info(self, sid: str) -> dict:
        managed = self._get(sid)
        session = managed.session
        with managed.lock:
            n_advances = managed.n_advances
            ticker = managed.ticker
            info = {
                "id": sid,
                "engine": session.engine,
                "online": session.online,
                "n_functions": session.n_functions,
                "horizon_minutes": session.horizon,
                "next_minute": session.next_minute,
                "done": session.done,
                "n_advances": n_advances,
                "ticking": ticker is not None and ticker.running,
                "tick_error": ticker.error if ticker is not None else None,
            }
        return info

    def close(self, sid: str, *, missing_ok: bool = False) -> dict:
        """Close one session (idempotent with ``missing_ok``).

        The session is popped from the registry *first*, so a double
        close — signal handler racing an HTTP DELETE — resolves to one
        winner tearing down and one clean 404/no-op, never a crash.
        """
        with self._registry_lock:
            managed = self._sessions.pop(sid, None)
        if managed is None:
            if missing_ok:
                return {"id": sid, "closed": False}
            raise ApiError(404, f"no session {sid!r}")
        with managed.lock:
            ticker = managed.ticker
            managed.ticker = None
        # stop() joins the tick thread, whose loop acquires managed.lock
        # — calling it under that lock would deadlock until the join
        # timeout.
        if ticker is not None:
            ticker.stop()
        if managed.journal is not None:
            with managed.lock:
                # An explicit close means there is nothing left to
                # recover; the journal files go with the session.
                managed.journal.delete()
        return {"id": sid, "closed": True}

    def close_all(self) -> None:
        """Close every session; idempotent and safe to race handlers."""
        with self._registry_lock:
            sids = list(self._sessions)
        for sid in sids:
            self.close(sid, missing_ok=True)

    def drain(self) -> None:
        """Graceful shutdown: refuse new work, stop tickers, let
        in-flight advances finish, then snapshot + fsync every session.

        Journal and snapshot files are *kept* (unlike :meth:`close`):
        a drained directory is a valid ``--recover`` source, so a
        deploy can SIGTERM one process and recover in the next.
        Idempotent — a second drain (signal racing the finally block)
        finds no tickers and re-compacts identical state.
        """
        self._draining.set()
        with self._registry_lock:
            managed_all = list(self._sessions.values())
        # Tickers first, *before* taking any session lock for the
        # snapshot pass: stop() joins a loop that needs managed.lock,
        # so detaching under the lock and joining outside is the only
        # deadlock-free order.
        tickers: list[_Ticker] = []
        for managed in managed_all:
            with managed.lock:
                ticker = managed.ticker
                managed.ticker = None
            if ticker is not None:
                tickers.append(ticker)
        for ticker in tickers:
            ticker.stop()
        for managed in managed_all:
            with managed.lock:
                if managed.journal is not None:
                    managed.journal.compact(managed.session)
                    managed.journal.close()

    # -- stepping ----------------------------------------------------------

    def advance(self, sid: str, body: dict | None = None) -> dict:
        if self._draining.is_set():
            raise ApiError(
                503, "server is draining",
                retry_after=self.limits.retry_after_s,
            )
        body = body or {}
        managed = self._get(sid)
        invocations = body.get("invocations")
        if isinstance(invocations, dict):
            # JSON object keys are strings; fids are ints.
            invocations = {int(k): v for k, v in invocations.items()}
        if not managed.gate.acquire(blocking=False):
            raise ApiError(
                429,
                f"session {sid} already has {self.limits.max_inflight} "
                "advances in flight",
                retry_after=self.limits.retry_after_s,
            )
        try:
            if not managed.lock.acquire(timeout=self.limits.deadline_s):
                raise ApiError(
                    503,
                    f"session {sid} stayed busy past the "
                    f"{self.limits.deadline_s:g}s request deadline",
                    retry_after=self.limits.retry_after_s,
                )
            try:
                result = managed.step(body.get("minute"), invocations)
            except ValueError as exc:
                raise ApiError(409, str(exc)) from exc
            finally:
                managed.lock.release()
        finally:
            managed.gate.release()
        return dict(result.as_dict())

    def tick(self, sid: str, body: dict | None = None) -> dict:
        body = body or {}
        managed = self._get(sid)
        action = body.get("action", "start")
        if action == "start":
            if self._draining.is_set():
                raise ApiError(
                    503, "server is draining",
                    retry_after=self.limits.retry_after_s,
                )
            interval_ms = body.get("interval_ms", 1000)
            if not isinstance(interval_ms, (int, float)) or interval_ms < 0:
                raise ApiError(400, f"bad interval_ms: {interval_ms!r}")
            with managed.lock:
                if managed.ticker is not None and managed.ticker.running:
                    raise ApiError(409, f"session {sid} is already ticking")
                # Safe under the lock: the new thread's first advance
                # blocks on managed.lock until we release it.
                managed.ticker = _Ticker(managed, interval_ms / 1000.0)
        elif action == "stop":
            with managed.lock:
                ticker = managed.ticker
            # Join outside managed.lock — the tick loop needs it to
            # finish its in-flight advance.
            if ticker is not None:
                ticker.stop()
        else:
            raise ApiError(400, f"tick action must be start|stop, got {action!r}")
        return self.info(sid)

    # -- read-outs ---------------------------------------------------------

    def metrics(self, sid: str) -> str:
        managed = self._get(sid)
        with managed.lock:
            obs = managed.session.stepper.obs
            try:
                return render_prometheus(obs)
            except ValueError as exc:
                raise ApiError(409, str(exc)) from exc

    def snapshot(self, sid: str) -> str:
        """The session's state as a JSON snapshot envelope (see
        :meth:`~repro.runtime.checkpoint.SimulationState.to_wire_json`)."""
        managed = self._get(sid)
        with managed.lock:
            state = managed.session.snapshot()
        return state.to_wire_json()

    def decisions(
        self, sid: str, fid: int | None = None, kind: str | None = None
    ) -> list[dict]:
        managed = self._get(sid)
        with managed.lock:
            return managed.session.decisions(fid, kind=kind)

    def result(self, sid: str) -> dict:
        managed = self._get(sid)
        with managed.lock:
            session = managed.session
            if not session.done:
                raise ApiError(
                    409,
                    f"session {sid} has only reached minute "
                    f"{session.next_minute} of {session.horizon}; "
                    "advance it to the horizon first",
                )
            summary = session.result().summary()
        return dict(summary)


# -- stdlib transport --------------------------------------------------------
class _ControlPlaneServer(ThreadingHTTPServer):
    """The control-plane HTTP server: a ``ThreadingHTTPServer`` with the
    attached :class:`SessionManager` reachable as ``server.manager``.

    Multi-tenant control planes see bursts of simultaneous connects
    (every tenant advancing each minute); the stdlib default backlog of
    5 drops connections under that load.
    """

    request_queue_size = 128
    daemon_threads = True
    manager: SessionManager


#: One route: (HTTP verb, path pattern, handler(match, query, body)).
_RouteHandler = Callable[
    ["dict[str, str]", "dict[str, list[str]]", bytes], Any
]


def make_server(
    host: str = "127.0.0.1",
    *,
    port: int = 0,
    manager: SessionManager | None = None,
    token: str | None = None,
    limits: ServeLimits | None = None,
) -> _ControlPlaneServer:
    """A ready-to-run ``ThreadingHTTPServer`` serving the v1 API.

    Returns the server; call ``serve_forever()`` (typically on a
    thread) and ``shutdown()`` to stop. ``port=0`` binds an ephemeral
    port (``server.server_address`` has the real one) — what the tests
    and the smoke driver use. The attached manager is reachable as
    ``server.manager``.

    With ``token`` set, every route except the health probes requires
    ``Authorization: Bearer <token>`` (compared constant-time) and
    answers 401 otherwise. ``limits`` overrides the manager's limits
    for the transport-level knobs (body size, read timeout) when the
    manager was built elsewhere.
    """
    manager = manager if manager is not None else SessionManager(limits=limits)
    limits = limits if limits is not None else manager.limits

    _SID = r"(?P<sid>[A-Za-z0-9_-]+)"
    routes: list[tuple[str, re.Pattern[str], _RouteHandler]] = [
        ("GET", re.compile(r"^/v1/healthz$"),
         lambda m, q, b: {"status": "ok"}),
        ("GET", re.compile(r"^/v1/readyz$"),
         lambda m, q, b: _readyz(manager)),
        ("GET", re.compile(r"^/v1/sessions$"),
         lambda m, q, b: {"sessions": manager.list()}),
        ("POST", re.compile(r"^/v1/sessions$"),
         lambda m, q, b: manager.create(_json_body(b))),
        ("POST", re.compile(r"^/v1/sessions/restore$"),
         lambda m, q, b: manager.restore(b)),
        ("GET", re.compile(rf"^/v1/sessions/{_SID}$"),
         lambda m, q, b: manager.info(m["sid"])),
        ("DELETE", re.compile(rf"^/v1/sessions/{_SID}$"),
         lambda m, q, b: manager.close(m["sid"])),
        ("POST", re.compile(rf"^/v1/sessions/{_SID}/advance$"),
         lambda m, q, b: manager.advance(m["sid"], _json_body(b, {}))),
        ("POST", re.compile(rf"^/v1/sessions/{_SID}/tick$"),
         lambda m, q, b: manager.tick(m["sid"], _json_body(b, {}))),
        ("GET", re.compile(rf"^/v1/sessions/{_SID}/metrics$"),
         lambda m, q, b: _Raw(
             manager.metrics(m["sid"]).encode(),
             "text/plain; version=0.0.4; charset=utf-8",
         )),
        ("GET", re.compile(rf"^/v1/sessions/{_SID}/snapshot$"),
         lambda m, q, b: _Raw(
             manager.snapshot(m["sid"]).encode(), "application/json"
         )),
        ("GET", re.compile(rf"^/v1/sessions/{_SID}/decisions$"),
         lambda m, q, b: {
             "decisions": manager.decisions(
                 m["sid"],
                 int(q["fid"][0]) if "fid" in q else None,
                 q["kind"][0] if "kind" in q else None,
             )
         }),
        ("GET", re.compile(rf"^/v1/sessions/{_SID}/result$"),
         lambda m, q, b: manager.result(m["sid"])),
    ]

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Socket timeout for the whole exchange: a client that stalls
        # mid-headers or mid-body cannot pin a worker thread forever.
        timeout = limits.read_timeout_s

        def log_message(self, format: str, *args: Any) -> None:
            pass  # quiet by default

        def _dispatch(self, method: str) -> None:
            from urllib.parse import parse_qs, urlsplit

            split = urlsplit(self.path)
            if not self._authorized(split.path):
                return
            try:
                body = self._read_body()
            except ApiError as exc:
                self._send_api_error(exc)
                return
            query = parse_qs(split.query)
            for verb, pattern, handler in routes:
                if verb != method:
                    continue
                match = pattern.match(split.path)
                if match is None:
                    continue
                try:
                    payload = handler(match.groupdict(), query, body)
                except ApiError as exc:
                    self._send_api_error(exc)
                except Exception as exc:  # repro: lint-ok[RPR006] HTTP crash-isolation boundary: an engine bug becomes a structured 500 for this one request and the server keeps serving other tenants; re-raising would tear down the worker thread with nothing on the wire
                    self._send_json(
                        500, {"error": f"internal: {exc}", "status": 500}
                    )
                else:
                    if isinstance(payload, _Raw):
                        self._send_raw(200, payload.value, payload.ctype)
                    else:
                        self._send_json(200, payload)
                return
            self._send_json(
                404,
                {"error": f"no route {method} {split.path}", "status": 404},
            )

        def _authorized(self, path: str) -> bool:
            if token is None or path in _UNAUTHENTICATED_PATHS:
                return True
            supplied = self.headers.get("Authorization", "")
            if supplied.startswith("Bearer ") and hmac.compare_digest(
                supplied[len("Bearer "):].encode(), token.encode()
            ):
                return True
            self._send_raw(
                401,
                json.dumps(
                    {"error": "missing or invalid bearer token",
                     "status": 401}
                ).encode(),
                "application/json",
                extra_headers=(("WWW-Authenticate", "Bearer"),),
            )
            return False

        def _read_body(self) -> bytes:
            """Read the request body defensively: bad or oversized
            ``Content-Length`` and truncated/stalled uploads become
            structured errors instead of hung or corrupted workers."""
            raw = self.headers.get("Content-Length")
            if raw is None:
                return b""
            try:
                length = int(raw)
            except ValueError:
                raise ApiError(400, f"bad Content-Length: {raw!r}") from None
            if length < 0:
                raise ApiError(400, f"bad Content-Length: {raw!r}")
            if length > limits.max_body_bytes:
                self.close_connection = True
                raise ApiError(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{limits.max_body_bytes}-byte limit",
                )
            if length == 0:
                return b""
            try:
                body = self.rfile.read(length)
            except TimeoutError:
                self.close_connection = True
                raise ApiError(
                    408, "timed out reading the request body"
                ) from None
            if len(body) != length:
                # The connection byte-stream is now unframed; drop it.
                self.close_connection = True
                raise ApiError(
                    400,
                    f"truncated request body: got {len(body)} of "
                    f"{length} bytes",
                )
            return body

        def _send_api_error(self, exc: ApiError) -> None:
            extra: list[tuple[str, str]] = []
            if exc.retry_after is not None:
                extra.append(("Retry-After", f"{exc.retry_after:g}"))
            self._send_raw(
                exc.status,
                json.dumps(
                    {"error": str(exc), "status": exc.status}
                ).encode(),
                "application/json",
                extra_headers=tuple(extra),
            )

        def _send_json(self, status: int, payload: Any) -> None:
            self._send_raw(
                status, json.dumps(payload).encode(), "application/json"
            )

        def _send_raw(
            self,
            status: int,
            body: bytes,
            ctype: str,
            extra_headers: tuple[tuple[str, str], ...] = (),
        ) -> None:
            try:
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                for name, value in extra_headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError, TimeoutError):
                # Client vanished mid-response; nothing to send it,
                # and the byte-stream is unusable for keep-alive.
                self.close_connection = True

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_POST(self) -> None:
            self._dispatch("POST")

        def do_DELETE(self) -> None:
            self._dispatch("DELETE")

    server = _ControlPlaneServer((host, port), Handler)
    server.manager = manager
    return server


def _readyz(manager: SessionManager) -> dict:
    if manager.draining:
        raise ApiError(
            503, "draining", retry_after=manager.limits.retry_after_s
        )
    return {"status": "ready"}


class _Raw:
    """Marker wrapper: route result is pre-encoded bytes + content type."""

    def __init__(self, value: bytes, ctype: str) -> None:
        self.value = value
        self.ctype = ctype


def _json_body(body: bytes, default: Any | None = None) -> Any:
    if not body:
        if default is not None:
            return default
        raise ApiError(400, "request needs a JSON body")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ApiError(400, f"bad JSON body: {exc}") from exc


_LOOPBACK_HOSTS = frozenset({"127.0.0.1", "::1", "localhost"})


def serve(
    host: str = "127.0.0.1",
    *,
    port: int = 8750,
    manager: SessionManager | None = None,
    token: str | None = None,
    journal_dir: str | Path | None = None,
    recover: bool = False,
    compact_every: int = 240,
    limits: ServeLimits | None = None,
) -> int:
    """Run the stdlib server until interrupted (the ``repro serve``
    entry point); returns the process exit code.

    Binds loopback by default. A non-loopback ``host`` requires
    ``token`` (snapshot restore deserializes engine state — never
    expose it unauthenticated); with a token set, every request must
    carry ``Authorization: Bearer <token>``.

    ``journal_dir`` turns on write-ahead journaling (compaction every
    ``compact_every`` session-minutes); ``recover=True`` first rebuilds
    every session the directory holds. SIGTERM (and Ctrl-C) trigger a
    graceful drain — tickers stop, in-flight advances finish, all
    sessions are snapshotted + fsynced — and the function returns 0,
    so a drained ``journal_dir`` is always a valid ``--recover`` source.
    """
    if host not in _LOOPBACK_HOSTS and token is None:
        raise SystemExit(
            f"repro serve: refusing to bind non-loopback host {host!r} "
            "without --token: snapshot restore deserializes engine "
            "state and must not be open to unauthenticated callers"
        )
    if manager is None:
        supervisor = (
            JournalSupervisor(journal_dir, every_minutes=compact_every)
            if journal_dir is not None
            else None
        )
        manager = SessionManager(limits=limits, journal=supervisor)
    if recover:
        if not manager.journaled:
            raise SystemExit(
                "repro serve: --recover needs --journal-dir (there is "
                "no journal to recover from)"
            )
        recovered = manager.recover()
        print(f"repro serve: recovered {len(recovered)} session(s)")
    server = make_server(
        host, port=port, manager=manager, token=token, limits=limits
    )
    bound_host, bound_port = server.server_address[:2]
    print(f"repro serve: listening on http://{bound_host}:{bound_port}/v1",
          flush=True)

    if threading.current_thread() is threading.main_thread():
        def _on_sigterm(signum: int, frame: Any) -> None:
            # shutdown() blocks until serve_forever()'s loop exits, and
            # this handler runs *inside* that loop's thread — a direct
            # call would deadlock. Hand it to a helper thread.
            threading.Thread(
                target=server.shutdown, name="drain-shutdown", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: interrupted, draining")
    finally:
        # Drain keeps journal/snapshot files for --recover; without a
        # journal there is nothing to persist, so just tear down.
        server.manager.drain()
        if not server.manager.journaled:
            server.manager.close_all()
        server.server_close()
    print("repro serve: drained, exiting")
    return 0

