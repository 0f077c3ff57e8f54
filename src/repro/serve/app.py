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
``POST``    ``/v1/sessions/restore``               rebuild from inputs
``GET``     ``/v1/sessions/{id}``                  session info
``DELETE``  ``/v1/sessions/{id}``                  close (stops its ticker)
``POST``    ``/v1/sessions/{id}/advance``          execute one minute
``POST``    ``/v1/sessions/{id}/tick``             start/stop auto-tick
``GET``     ``/v1/sessions/{id}/metrics``          Prometheus exposition
``GET``     ``/v1/sessions/{id}/snapshot``         JSON inputs document
``GET``     ``/v1/sessions/{id}/decisions?fid=``   decision-trace records
``GET``     ``/v1/sessions/{id}/result``           final RunResult summary
==========  =====================================  ========================

The one transport is the server's own HTTP/1.1 request loop
(:func:`make_server`) on a stdlib thread-per-connection
``socketserver.ThreadingTCPServer``: no dependencies, and what the test
suite and ``repro serve`` exercise. Per request it reads the request
line and headers in one pass (lines of at most 65,536 bytes, at most
100 headers), routes on a (verb, path shape) table, and writes the
response head and body in one write on a ``TCP_NODELAY`` socket.
Bodies are framed by ``Content-Length`` only: any ``Transfer-Encoding``
answers 501. HTTP/1.1 connections stay open unless the client sends
``Connection: close``; HTTP/1.0 ones close unless it sends
``Connection: keep-alive``; ``Expect: 100-continue`` gets its interim
100. Transport errors answer in the API's JSON error shape and close
the connection.

Production hardening lives here too:

- **A session persists as its inputs**: ``GET .../snapshot`` returns
  the inputs document (:class:`~repro.serve.journal.SessionInputs` —
  the JSON spec, its fingerprint and the successful advances), and
  ``POST /v1/sessions/restore`` rebuilds from one through
  :func:`rebuild_session`. Every body is parsed as JSON and validated
  (:func:`~repro.serve.journal.parse_advance` for each advance); no
  request byte is ever unpickled. Every route still drives engine work
  on a caller's behalf, so non-loopback binds require a **bearer
  token** (:func:`serve` refuses to start without one; requests without
  it get 401).
- **Backpressure**: a full session table or a drained server answers
  503, a session already at its in-flight cap answers 429, and a
  per-request deadline on the session lock answers 503 — all with
  ``Retry-After`` (:class:`ServeLimits` holds the knobs).
- **Crash durability**: give the manager a
  :class:`~repro.serve.journal.JournalSupervisor` and every advance is
  write-ahead journaled, and compaction writes the inputs document;
  :meth:`SessionManager.recover` rebuilds all tenants bit-identically
  after a SIGKILL. SIGTERM triggers a graceful drain: tickers stop,
  in-flight advances finish, every session's inputs document is
  written and fsynced, and the process exits 0.
"""

from __future__ import annotations

import hmac
import json
import re
import signal
import socketserver
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from pathlib import Path
from typing import Any, Callable
from urllib.parse import parse_qs

from repro.obs.export import render_prometheus
from repro.serve.journal import (
    JournalSupervisor,
    SessionInputs,
    SessionJournal,
    parse_advance,
)
from repro.serve.session import ControlSession, TraceMeta, open_session

__all__ = [
    "ApiError",
    "ServeLimits",
    "SessionManager",
    "make_server",
    "open_session_from_spec",
    "rebuild_session",
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


def rebuild_session(inputs: SessionInputs) -> ControlSession:
    """Rebuild a session from its inputs: reopen the spec, refuse a
    fingerprint that differs from the recorded one, then re-run every
    recorded advance. Restore and recovery both come through here.

    Bit-identical to the session that recorded the inputs, because a
    session is a pure function of its spec and its advances. Raises
    ``ValueError`` on a bad spec, a fingerprint mismatch or a record
    the session refuses.
    """
    try:
        session = open_session_from_spec(inputs.spec)
    except ApiError as exc:
        raise ValueError(f"session spec: {exc}") from exc
    actual = session.fingerprint()
    if actual != inputs.fingerprint:
        raise ValueError(
            f"rebuilt session fingerprint {actual[:12]} does not match "
            f"the recorded {inputs.fingerprint[:12]} — the spec or its "
            "registries drifted; replaying advances would diverge silently"
        )
    for minute, invocations in inputs.advances:
        session.advance(minute, invocations)
    return session


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
        inputs: SessionInputs,
        *,
        max_inflight: int = 4,
        journal: SessionJournal | None = None,
    ) -> None:
        self.sid = sid
        self.session = session
        self.inputs = inputs
        self.lock = threading.Lock()
        self.gate = threading.BoundedSemaphore(max_inflight)
        self.journal = journal
        self.ticker: _Ticker | None = None

    def step(
        self, minute: int | None, invocations: dict[int, int] | None
    ) -> Any:
        """Execute one advance — journal record first, then the engine,
        then the inputs record of the advance that stepped.

        The caller holds ``self.lock`` (every call site acquires it;
        a timed acquire cannot be a lexical ``with``)."""
        if self.journal is not None:
            self.journal.record_advance(
                self.session.next_minute if minute is None else minute,
                invocations,
            )
        result = self.session.advance(minute, invocations)
        self.inputs.advances.append((result.minute, invocations))
        if self.journal is not None:
            self.journal.maybe_compact()
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

    def _register(self, session: ControlSession, inputs: SessionInputs) -> dict:
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
                self._journal.create(sid, inputs)
                if self._journal is not None
                else None
            )
            self._sessions[sid] = _ManagedSession(
                sid,
                session,
                inputs,
                max_inflight=self.limits.max_inflight,
                journal=journal,
            )
        return self.info(sid)

    def create(self, spec: dict) -> dict:
        session = open_session_from_spec(spec)
        return self._register(
            session, SessionInputs(spec, session.fingerprint())
        )

    def restore(self, payload: bytes) -> dict:
        """Rebuild a session from an inputs document (the body a
        ``/snapshot`` GET returned) under a new id; 400 on a malformed
        document, a fingerprint mismatch or a refused record."""
        try:
            inputs = SessionInputs.from_json(payload)
            session = rebuild_session(inputs)
        except ValueError as exc:
            raise ApiError(400, str(exc)) from exc
        return self._register(session, inputs)

    def recover(self) -> list[dict]:
        """Rebuild every session the journal directory holds (after a
        crash or a drain) and register them under their original ids.

        Returns the recovered sessions' info dicts, each with two more
        keys: ``recovery_s`` (wall seconds to rebuild it) and
        ``bytes_read`` (its journal plus inputs-document bytes). Raises
        :class:`~repro.serve.journal.JournalError` on unrecoverable
        state — silently dropping a tenant would defeat the journal.
        """
        if self._journal is None:
            raise ValueError("recover() needs a manager with a journal")
        out: list[dict] = []
        for sid in self._journal.discover():
            t0 = time.perf_counter()
            session, journal, n_bytes = self._journal.recover(sid)
            seconds = time.perf_counter() - t0
            with self._registry_lock:
                if sid.startswith("s") and sid[1:].isdigit():
                    self._next_id = max(self._next_id, int(sid[1:]))
                self._sessions[sid] = _ManagedSession(
                    sid,
                    session,
                    journal.inputs,
                    max_inflight=self.limits.max_inflight,
                    journal=journal,
                )
            out.append(
                dict(self.info(sid), recovery_s=seconds, bytes_read=n_bytes)
            )
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
            ticker = managed.ticker
            info = {
                "id": sid,
                "engine": session.engine,
                "online": session.online,
                "n_functions": session.n_functions,
                "horizon_minutes": session.horizon,
                "next_minute": session.next_minute,
                "done": session.done,
                "n_advances": len(managed.inputs.advances),
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
        in-flight advances finish, then write and fsync every session's
        inputs document.

        Journal and document files are *kept* (unlike :meth:`close`):
        a drained directory is a valid ``--recover`` source, so a
        deploy can SIGTERM one process and recover in the next.
        Idempotent — a second drain (signal racing the finally block)
        finds no tickers and re-compacts identical state.
        """
        self._draining.set()
        with self._registry_lock:
            managed_all = list(self._sessions.values())
        # Tickers first, *before* taking any session lock for the
        # compaction pass: stop() joins a loop that needs managed.lock,
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
                    managed.journal.compact()
                    managed.journal.close()

    # -- stepping ----------------------------------------------------------

    def advance(self, sid: str, body: Any = None) -> dict:
        """Execute one minute. ``body`` is the parsed JSON body (``None``
        means ``{}``); a malformed one answers 400 before anything is
        journaled (see :func:`~repro.serve.journal.parse_advance`), and
        one the session refuses (a past minute, an unknown fid) 409."""
        if self._draining.is_set():
            raise ApiError(
                503, "server is draining",
                retry_after=self.limits.retry_after_s,
            )
        try:
            minute, invocations = parse_advance({} if body is None else body)
        except ValueError as exc:
            raise ApiError(400, str(exc)) from exc
        managed = self._get(sid)
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
                result = managed.step(minute, invocations)
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
        """The session's inputs document (see
        :class:`~repro.serve.journal.SessionInputs`)."""
        managed = self._get(sid)
        with managed.lock:
            return managed.inputs.to_json()

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


# -- transport ---------------------------------------------------------------

#: Request-head limits (the values ``http.server`` enforces).
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: ``HTTP/1.1 <code> <phrase>\r\n`` per status code, built once.
_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
    for status in HTTPStatus
}
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug",
           "Sep", "Oct", "Nov", "Dec")


class _DateLine:
    """The ``Date:`` header line, formatted at most once per second.

    Threads race benignly: the cache is one tuple, swapped whole."""

    def __init__(self) -> None:
        self._cached = (-1, "")

    def __call__(self) -> str:
        now = int(time.time())
        second, line = self._cached
        if second != now:
            t = time.gmtime(now)
            line = (
                f"Date: {_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} "
                f"{_MONTHS[t.tm_mon]} {t.tm_year:04d} {t.tm_hour:02d}:"
                f"{t.tm_min:02d}:{t.tm_sec:02d} GMT\r\n"
            )
            self._cached = (now, line)
        return line


#: One route: handler(manager, session id, query, body) -> payload.
_Route = Callable[[SessionManager, str, dict[str, list[str]], bytes], Any]

#: Routes on a fixed path, keyed by (verb, path).
_ROUTES: dict[tuple[str, str], _Route] = {
    ("GET", "/v1/healthz"): lambda m, s, q, b: {"status": "ok"},
    ("GET", "/v1/readyz"): lambda m, s, q, b: _readyz(m),
    ("GET", "/v1/sessions"): lambda m, s, q, b: {"sessions": m.list()},
    ("POST", "/v1/sessions"): lambda m, s, q, b: m.create(_json_body(b)),
    ("POST", "/v1/sessions/restore"): lambda m, s, q, b: m.restore(b),
}

#: Routes under ``/v1/sessions/{id}``, keyed by (verb, rest of the path).
_SESSION_ROUTES: dict[tuple[str, str], _Route] = {
    ("GET", ""): lambda m, s, q, b: m.info(s),
    ("DELETE", ""): lambda m, s, q, b: m.close(s),
    ("POST", "/advance"): lambda m, s, q, b: m.advance(s, _json_body(b, {})),
    ("POST", "/tick"): lambda m, s, q, b: m.tick(s, _json_body(b, {})),
    ("GET", "/metrics"): lambda m, s, q, b: _Raw(
        m.metrics(s).encode(), "text/plain; version=0.0.4; charset=utf-8"
    ),
    ("GET", "/snapshot"): lambda m, s, q, b: _Raw(
        m.snapshot(s).encode(), "application/json"
    ),
    ("GET", "/decisions"): lambda m, s, q, b: {
        "decisions": m.decisions(
            s,
            _query_int(q, "fid"),
            q["kind"][0] if "kind" in q else None,
        )
    },
    ("GET", "/result"): lambda m, s, q, b: m.result(s),
}

_SESSIONS_PREFIX = "/v1/sessions/"
_SID = re.compile(r"[A-Za-z0-9_-]+")
_METHODS = frozenset({"GET", "POST", "DELETE"})


def _route(method: str, path: str) -> tuple[_Route, str] | None:
    """The route and session id for a request, or ``None``."""
    route = _ROUTES.get((method, path))
    if route is not None:
        return route, ""
    if path.startswith(_SESSIONS_PREFIX):
        sid, sep, rest = path[len(_SESSIONS_PREFIX):].partition("/")
        route = _SESSION_ROUTES.get((method, sep + rest))
        if route is not None and _SID.fullmatch(sid):
            return route, sid
    return None


def _query_int(query: dict[str, list[str]], name: str) -> int | None:
    if name not in query:
        return None
    try:
        return int(query[name][0])
    except ValueError:
        raise ApiError(400, f"bad {name}: {query[name][0]!r}") from None


class _ControlPlaneServer(socketserver.ThreadingTCPServer):
    """The control-plane server: one thread per connection, each running
    :class:`_Handler`'s request loop against ``server.manager``.

    Multi-tenant control planes see bursts of simultaneous connects
    (every tenant advancing each minute); the default backlog of 5
    drops connections under that load.
    """

    request_queue_size = 128
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        *,
        manager: SessionManager,
        token: str | None,
        limits: ServeLimits,
    ) -> None:
        self.manager = manager
        self.token = token.encode() if token is not None else None
        self.limits = limits
        self.date_line = _DateLine()
        super().__init__(address, _Handler)


class _Handler(socketserver.StreamRequestHandler):
    """One connection's HTTP/1.1 request loop (rules in the module
    docstring)."""

    # TCP_NODELAY on every accepted socket: with Nagle on, a response
    # written after the client's last ACK waits for its delayed ACK
    # (~40 ms) on a keep-alive connection.
    disable_nagle_algorithm = True
    server: _ControlPlaneServer

    def setup(self) -> None:
        super().setup()
        # Socket timeout for the whole exchange: a client that stalls
        # mid-headers or mid-body cannot pin a worker thread forever.
        self.connection.settimeout(self.server.limits.read_timeout_s)

    def handle(self) -> None:
        try:
            while self._handle_one():
                pass
        except (TimeoutError, ConnectionError):  # repro: lint-ok[RPR006] an idle keep-alive client timed out or the peer reset: the connection ends and there is no one left to answer
            pass

    def _handle_one(self) -> bool:
        """Serve one request; returns whether the connection stays open."""
        try:
            head = self._read_head()
        except ApiError as exc:
            # The byte stream cannot be framed past a bad head.
            return self._send_api_error(exc, keep_alive=False)
        if head is None:
            return False
        method, target, headers, keep_alive, expect_100 = head
        path, has_query, query = target.partition("?")
        server = self.server
        if (
            server.token is not None
            and path not in _UNAUTHENTICATED_PATHS
            and not _bearer_ok(headers.get("authorization", ""), server.token)
        ):
            # An unread body would be parsed as the next request.
            pending = headers.get("content-length", "0") != "0"
            return self._send_api_error(
                ApiError(401, "missing or invalid bearer token"),
                keep_alive=keep_alive and not pending,
                extra="WWW-Authenticate: Bearer\r\n",
            )
        try:
            body = self._read_body(headers, expect_100=expect_100)
        except ApiError as exc:
            return self._send_api_error(exc, keep_alive=False)

        found = _route(method, path)
        if found is None:
            status = 404 if method in _METHODS else 501
            return self._send_api_error(
                ApiError(status, f"no route {method} {path}"),
                keep_alive=keep_alive,
            )
        route, sid = found
        try:
            payload = route(
                server.manager, sid,
                parse_qs(query) if has_query else {}, body,
            )
        except ApiError as exc:
            return self._send_api_error(exc, keep_alive=keep_alive)
        except Exception as exc:  # repro: lint-ok[RPR006] HTTP crash-isolation boundary: an engine bug becomes a structured 500 for this one request and the server keeps serving other tenants; re-raising would tear down the worker thread with nothing on the wire
            return self._send_api_error(
                ApiError(500, f"internal: {exc}"), keep_alive=keep_alive
            )
        if isinstance(payload, _Raw):
            return self._send(
                200, payload.value, payload.ctype, keep_alive=keep_alive
            )
        return self._send(
            200, json.dumps(payload).encode(), "application/json",
            keep_alive=keep_alive,
        )

    def _read_head(
        self,
    ) -> tuple[str, str, dict[str, str], bool, bool] | None:
        """Read the request line and headers in one pass: ``(method,
        target, headers, keep_alive, expect_100)``, or ``None`` at end of
        stream. Header names are lower-cased; a repeated header's values
        are joined with ``", "``."""
        rfile = self.rfile
        line = rfile.readline(_MAX_LINE + 1)
        while line in (b"\r\n", b"\n"):  # blank lines before a request
            line = rfile.readline(_MAX_LINE + 1)
        if not line:
            return None
        if len(line) > _MAX_LINE:
            raise ApiError(414, f"request line exceeds {_MAX_LINE} bytes")
        words = line.decode("latin-1").split()
        if len(words) != 3:
            raise ApiError(400, f"malformed request line {line[:100]!r}")
        method, target, version = words
        if version == "HTTP/1.1":
            keep_alive = True
        elif version == "HTTP/1.0":
            keep_alive = False
        elif version.startswith("HTTP/"):
            raise ApiError(505, f"unsupported HTTP version {version!r}")
        else:
            raise ApiError(400, f"malformed request line {line[:100]!r}")

        headers: dict[str, str] = {}
        n_lines = 0
        while True:
            line = rfile.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > _MAX_LINE:
                raise ApiError(431, f"header line exceeds {_MAX_LINE} bytes")
            n_lines += 1
            if n_lines > _MAX_HEADERS:
                raise ApiError(431, f"more than {_MAX_HEADERS} headers")
            name, colon, value = line.decode("latin-1").partition(":")
            name = name.lower()
            if not colon or not name or name != name.strip():
                raise ApiError(400, f"malformed header line {line[:100]!r}")
            value = value.strip()
            headers[name] = (
                f"{headers[name]}, {value}" if name in headers else value
            )

        if "transfer-encoding" in headers:
            raise ApiError(
                501,
                "Transfer-Encoding is not supported; send a "
                "Content-Length body",
            )
        connection = headers.get("connection")
        if connection is not None:
            tokens = connection.lower().replace(" ", "").split(",")
            if "close" in tokens:
                keep_alive = False
            elif "keep-alive" in tokens:
                keep_alive = True
        expect_100 = (
            version == "HTTP/1.1"
            and headers.get("expect", "").lower() == "100-continue"
        )
        return method, target, headers, keep_alive, expect_100

    def _read_body(self, headers: dict[str, str], *, expect_100: bool) -> bytes:
        """Read the request body defensively: bad or oversized
        ``Content-Length`` and truncated/stalled uploads become
        structured errors instead of hung or corrupted workers. A client
        that sent ``Expect: 100-continue`` gets the interim 100 only once
        the body is wanted."""
        raw = headers.get("content-length")
        if raw is None:
            return b""
        try:
            length = int(raw)
        except ValueError:
            raise ApiError(400, f"bad Content-Length: {raw!r}") from None
        if length < 0:
            raise ApiError(400, f"bad Content-Length: {raw!r}")
        limit = self.server.limits.max_body_bytes
        if length > limit:
            raise ApiError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
            )
        if length == 0:
            return b""
        if expect_100:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            raise ApiError(408, "timed out reading the request body") from None
        if len(body) != length:
            raise ApiError(
                400,
                f"truncated request body: got {len(body)} of {length} bytes",
            )
        return body

    def _send_api_error(
        self, exc: ApiError, *, keep_alive: bool, extra: str = ""
    ) -> bool:
        if exc.retry_after is not None:
            extra += f"Retry-After: {exc.retry_after:g}\r\n"
        return self._send(
            exc.status,
            json.dumps({"error": str(exc), "status": exc.status}).encode(),
            "application/json",
            keep_alive=keep_alive,
            extra=extra,
        )

    def _send(
        self,
        status: int,
        body: bytes,
        ctype: str,
        *,
        keep_alive: bool,
        extra: str = "",
    ) -> bool:
        """Write one response — head and body in one write — and return
        whether the connection stays open."""
        if not keep_alive:
            extra += "Connection: close\r\n"
        head = (
            f"{_STATUS_LINES[status]}{self.server.date_line()}"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n"
        )
        try:
            self.wfile.write(head.encode("latin-1") + body)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # The client vanished mid-response; the byte stream is
            # unusable for keep-alive.
            return False
        return keep_alive


def _bearer_ok(supplied: str, token: bytes) -> bool:
    """Whether an ``Authorization`` value carries the bearer token
    (compared in constant time)."""
    return supplied.startswith("Bearer ") and hmac.compare_digest(
        supplied[len("Bearer "):].encode(), token
    )


def make_server(
    host: str = "127.0.0.1",
    *,
    port: int = 0,
    manager: SessionManager | None = None,
    token: str | None = None,
    limits: ServeLimits | None = None,
) -> _ControlPlaneServer:
    """A ready-to-run threaded server serving the v1 API.

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
    return _ControlPlaneServer(
        (host, port),
        manager=manager,
        token=token,
        limits=limits if limits is not None else manager.limits,
    )


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
    ``token`` (every route runs engine work for its caller, and restore
    replays a caller's whole document — never expose that
    unauthenticated); with a token set, every request must carry
    ``Authorization: Bearer <token>``.

    ``journal_dir`` turns on write-ahead journaling (the inputs document
    is written and the journal fsynced every ``compact_every``
    session-minutes); ``recover=True`` first rebuilds every session the
    directory holds and prints how long that took and how many bytes it
    read. SIGTERM (and Ctrl-C) trigger a graceful drain — tickers stop,
    in-flight advances finish, every inputs document is written and
    fsynced — and the function returns 0, so a drained ``journal_dir``
    is always a valid ``--recover`` source.
    """
    if host not in _LOOPBACK_HOSTS and token is None:
        raise SystemExit(
            f"repro serve: refusing to bind non-loopback host {host!r} "
            "without --token: every route runs engine work for its "
            "caller (restore replays a whole session) and must not be "
            "open to unauthenticated callers"
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
        t0 = time.perf_counter()
        recovered = manager.recover()
        slowest = max(
            recovered, key=lambda info: info["recovery_s"],
            default={"id": "-", "recovery_s": 0.0},
        )
        print(
            f"repro serve: recovered {len(recovered)} session(s) in "
            f"{time.perf_counter() - t0:.3f}s (slowest {slowest['id']} "
            f"{slowest['recovery_s']:.3f}s), read "
            f"{sum(info['bytes_read'] for info in recovered)} bytes of "
            "journal and inputs documents",
            flush=True,
        )
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
        # Drain keeps journal and inputs-document files for --recover; without a
        # journal there is nothing to persist, so just tear down.
        server.manager.drain()
        if not server.manager.journaled:
            server.manager.close_all()
        server.server_close()
    print("repro serve: drained, exiting")
    return 0

