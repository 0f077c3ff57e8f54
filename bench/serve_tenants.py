"""Workload ``serve-tenants``: online tenants on the HTTP control plane.

Server: ``python -m repro serve`` in its own process on loopback, with
``--journal-dir`` (write-ahead journal, compaction every 240 minutes by
default) and ``--token``.

Tenants: online 12-function tenants (``{"meta": ...}`` specs, default
``observe``), each with a 260-minute horizon so it crosses one
compaction. Tenant ``j`` replays the arrivals of a synthetic 12-function
trace generated from ``(--seed, j)`` and uses assignment seed ``j``.

Drive: a closed loop from this process over two keep-alive connections,
one thread each. A connection advances its tenants one after another,
sending each minute's arrivals in the advance body; beside the advances
it reads ``/metrics`` after every minute and one function's
``/decisions`` every 30 minutes (``common.reads_after``: the first is
Prometheus' default one-minute scrape interval, the second a chosen
cadence). A finished tenant ends with
``GET /result`` and ``DELETE``. The loop stops once the window is spent,
enough advances exist to resolve p99, and the first two tenants of each
connection have finished; each of those results must equal a batch
``simulate()`` over the same arrivals, assignment and seed.

The traced run adds client-side spans and replays the first tenants
in-process through ``SessionManager`` with a journal, shimming the app,
session and journal layers.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import queue
import secrets
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import (
    P99_SAMPLES,
    Outcome,
    PercentileRefused,
    Tally,
    active_shares,
    guards,
    median,
    percentile,
    process_peak_rss_mb,
    quality,
    reads_after,
    summary_diff,
)
from tracing import Tracer, maybe_span

from repro.api import simulate
from repro.experiments.assignments import sample_assignment
from repro.serve.app import SessionManager
from repro.serve.journal import JournalSupervisor, SessionJournal
from repro.serve.session import ControlSession
from repro.traces.schema import FunctionSpec, Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
import repro.serve.app as serve_app

N_FUNCTIONS = 12
HORIZON = 260
COMPACT_EVERY = 240
CONNECTIONS = 2
SETUP_WAVES = 3
#: Tenants whose results feed the quality metrics: the first two of
#: each connection, so the set does not depend on host speed.
QUALITY_TENANTS = 2 * CONNECTIONS
BOOT_TIMEOUT_S = 60.0
HARD_CAP_S = 120.0


def arrivals(seed: int, j: int) -> np.ndarray:
    """Tenant ``j``'s per-minute arrivals, ``(N_FUNCTIONS, HORIZON)``."""
    return generate_trace(
        SyntheticTraceConfig(seed=seed * 1000 + j, horizon_minutes=HORIZON)
    ).counts


def spec(j: int) -> dict:
    return {
        "meta": {"n_functions": N_FUNCTIONS, "horizon_minutes": HORIZON},
        "policy": "pulse",
        "seed": j,
    }


def advance_body(counts: np.ndarray, minute: int) -> dict:
    fids = np.flatnonzero(counts[:, minute])
    return {
        "invocations": {str(f): int(counts[f, minute]) for f in fids.tolist()}
    }


def batch(counts: np.ndarray, j: int, policy: str):
    """The batch run a tenant must reproduce."""
    trace = Trace(
        counts=counts,
        functions=tuple(
            FunctionSpec(f, f"fn-{f:05d}", archetype="online")
            for f in range(N_FUNCTIONS)
        ),
        name="online",
    )
    return simulate(
        trace, assignment=sample_assignment(N_FUNCTIONS, seed=j),
        policy=policy,
    )


class Server:
    """``repro serve`` in a child process; always stopped on exit."""

    def __init__(self, root: Path, journal_dir: Path) -> None:
        self.token = secrets.token_hex(16)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--journal-dir", str(journal_dir),
             "--token", self.token, "--compact-every", str(COMPACT_EVERY)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=root,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            line = self.lines.get(timeout=BOOT_TIMEOUT_S)
        except queue.Empty:
            self.stop()
            raise RuntimeError("repro serve did not report ready") from None
        self.boot_s = time.perf_counter() - t0
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro serve failed to start: {line.strip()}")
        self.port = int(line.rsplit(":", 1)[1].split("/")[0])
        self.exit_code: int | None = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (the graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self.exit_code = self.proc.returncode
        return self.exit_code


class Client:
    """One keep-alive connection with the bearer token."""

    def __init__(self, port: int, token: str) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.headers = {
            "Authorization": f"Bearer {token}",
            "Content-Type": "application/json",
        }

    def request(self, method: str, path: str, body=None):
        """Send ``body`` (a JSON-ready object or encoded bytes); returns
        (status, body bytes, seconds), status 0 on a transport error."""
        if body is None or isinstance(body, bytes):
            data = body
        else:
            data = json.dumps(body).encode()
        t0 = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=self.headers)
            resp = self.conn.getresponse()
            payload = resp.read()
            status = resp.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return 0, b"", time.perf_counter() - t0
        return status, payload, time.perf_counter() - t0

    def close(self) -> None:
        self.conn.close()


class Loop:
    """The closed loop: shared inputs, stop rule and per-thread logs."""

    def __init__(self, ctx, server: Server, tracer: Tracer | None) -> None:
        self.ctx = ctx
        self.server = server
        self.tracer = tracer
        self.lock = threading.Lock()
        self.inputs: dict[int, np.ndarray] = {}
        self.sids: dict[int, str] = {}
        self.results: dict[int, dict] = {}
        self.batch: dict[int, object] = {}
        self.n_advances = 0
        self.advance_s: list[float] = []
        self.read_s: list[float] = []
        self.create_s: list[float] = []
        self.tally = Tally()
        self.start = 0.0
        self.aborted = threading.Event()

    def counts(self, j: int) -> np.ndarray:
        with self.lock:
            if j not in self.inputs:
                with maybe_span(self.tracer, "traces.generate"):
                    self.inputs[j] = arrivals(self.ctx.seed, j)
            return self.inputs[j]

    def create(self, client: Client, j: int) -> str | None:
        status, payload, dt = self.call(client, "create", "POST",
                                        "/v1/sessions", spec(j))
        with self.lock:
            ok = self.tally.http(status, f"create tenant {j}")
            self.create_s.append(dt)
            if ok:
                self.sids[j] = json.loads(payload)["id"]
            return self.sids.get(j)

    def call(self, client, kind, method, path, body=None):
        with maybe_span(self.tracer, f"http.{kind}"):
            return client.request(method, path, body)

    def stopping(self) -> bool:
        elapsed = time.perf_counter() - self.start
        if elapsed >= HARD_CAP_S or self.aborted.is_set():
            return True
        with self.lock:
            done = all(j in self.results for j in range(QUALITY_TENANTS))
            return (
                elapsed >= self.ctx.seconds
                and self.n_advances >= P99_SAMPLES
                and done
            )

    def worker(self, c: int) -> None:
        client = Client(self.server.port, self.server.token)
        try:
            with maybe_span(self.tracer, "serve-tenants.client", rid=c):
                self._drive(client, c)
        except Exception as exc:  # the thread's boundary: report, stop all
            with self.lock:
                self.tally.op(False, f"connection {c}: {exc!r}")
            self.aborted.set()
        finally:
            client.close()

    def _drive(self, client: Client, c: int) -> None:
        for k in range(10**6):
            j = c + CONNECTIONS * k
            counts = self.counts(j)
            sid = self.sids.get(j) or self.create(client, j)
            if sid is None:
                self.aborted.set()
                return
            base = f"/v1/sessions/{sid}"
            # Encoded up front, so the timed loop does no client work
            # beyond the request itself.
            bodies = [
                json.dumps(advance_body(counts, m)).encode()
                for m in range(HORIZON)
            ]
            finished = True
            for minute in range(HORIZON):
                if self.stopping():
                    finished = False
                    break
                status, _, dt = self.call(
                    client, "advance", "POST", f"{base}/advance",
                    bodies[minute],
                )
                with self.lock:
                    if self.tally.http(status, f"advance {j}/{minute}"):
                        self.n_advances += 1
                        self.advance_s.append(dt)
                if status != 200:
                    finished = False
                    self.aborted.set()
                    break
                for kind, fid in reads_after(minute, N_FUNCTIONS):
                    path = (f"{base}/metrics" if kind == "metrics"
                            else f"{base}/decisions?fid={fid}")
                    status, _, dt = self.call(client, "read", "GET", path)
                    with self.lock:
                        if self.tally.http(status, f"read {path}"):
                            self.read_s.append(dt)
            if finished:
                status, payload, _ = self.call(
                    client, "result", "GET", f"{base}/result"
                )
                with self.lock:
                    if self.tally.http(status, f"result {j}"):
                        self.results[j] = json.loads(payload)
            status, _, _ = self.call(client, "delete", "DELETE", base)
            with self.lock:
                self.tally.http(status, f"delete {j}")
                self.sids.pop(j, None)
            if not finished:
                return

    def run(self) -> float:
        threads = [
            threading.Thread(target=self.worker, args=(c,), name=f"conn-{c}")
            for c in range(CONNECTIONS)
        ]
        # The client's own collector pauses would read as server latency.
        gc.collect()
        gc.disable()
        self.start = time.perf_counter()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=HARD_CAP_S + 60)
        finally:
            gc.enable()
        if any(t.is_alive() for t in threads):
            raise RuntimeError("client threads did not finish")
        return time.perf_counter() - self.start


def _setup(loop: Loop, server: Server) -> list[float]:
    """Set-up: create one tenant per connection, wave after wave."""
    client = Client(server.port, server.token)
    waves = []
    try:
        for w in range(SETUP_WAVES):
            t0 = time.perf_counter()
            for c in range(CONNECTIONS):
                loop.create(client, w * CONNECTIONS + c)
            waves.append(time.perf_counter() - t0)
        return waves
    finally:
        client.close()


def _close_leftovers(loop: Loop, server: Server) -> None:
    client = Client(server.port, server.token)
    try:
        for j, sid in sorted(loop.sids.items()):
            status, _, _ = client.request("DELETE", f"/v1/sessions/{sid}")
            loop.tally.http(status, f"delete unused tenant {j}")
    finally:
        client.close()


def _check(ctx, loop: Loop, tracer: Tracer | None) -> dict:
    """Every finished tenant against batch ``simulate()``; returns the
    quality metrics over the fixed quality tenants."""
    tally = ctx.tally

    def run_batch(j: int, policy: str):
        with maybe_span(tracer, "serve-tenants.check", rid=j):
            with maybe_span(tracer, f"runtime.run.{policy}"):
                return batch(loop.inputs[j], j, policy)

    for j, result in sorted(loop.results.items()):
        counts = loop.inputs[j]
        loop.batch[j] = run_batch(j, "pulse")
        tally.check(f"tenant {j} vs batch simulate()",
                    summary_diff(loop.batch[j].summary(), result))
        tally.check(
            f"tenant {j} invocations",
            [] if result["invocations"] == float(counts.sum())
            else ["invocations"],
        )
    ow, pu = [], []
    for j in range(QUALITY_TENANTS):
        if not tally.op(j in loop.results, f"quality tenant {j} unfinished"):
            return {}
        ow.append(run_batch(j, "openwhisk"))
        pu.append(loop.batch[j])  # checked equal to the tenant's result
    return quality(ow, pu)


def _serve(ctx, tracer: Tracer | None):
    """Boot, set up, drive and tear down; returns (loop, facts)."""
    journal_dir = ctx.work / "journal"
    journal_dir.mkdir(parents=True, exist_ok=True)
    server = Server(ctx.root, journal_dir)
    try:
        loop = Loop(ctx, server, tracer)
        for j in range(SETUP_WAVES * CONNECTIONS):
            loop.counts(j)
        waves = _setup(loop, server)
        loop_s = loop.run()
        _close_leftovers(loop, server)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    ctx.tally.merge(loop.tally)
    ctx.tally.op(server.exit_code == 0,
                 f"repro serve exited with {server.exit_code}")
    return loop, {"boot_s": server.boot_s, "setup_waves_s": waves,
                  "loop_s": loop_s, "peak_rss_mb": rss}


def _p(samples: list[float], p: float, ctx, what: str) -> float | None:
    try:
        return 1e3 * percentile(samples, p)
    except PercentileRefused as exc:
        ctx.tally.op(False, f"{what}: {exc}")
        return None


def _provenance(ctx, loop: Loop) -> dict:
    quality_counts = np.concatenate(
        [loop.inputs[j] for j in range(QUALITY_TENANTS) if j in loop.inputs]
    )
    return {
        "seed": ctx.seed,
        "n_functions": N_FUNCTIONS,
        "horizon_minutes": HORIZON,
        "connections": CONNECTIONS,
        "quality_tenants": QUALITY_TENANTS,
        "tenants_finished": len(loop.results),
        "advances": loop.n_advances,
        "reads": len(loop.read_s),
        "invocations": int(sum(
            loop.inputs[j].sum() for j in loop.results
        )),
        **active_shares(quality_counts),
    }


def _latencies(ctx, loop: Loop) -> dict[str, float]:
    """Client round trips of the advances and the reads."""
    out = {
        "serve.advance_p50_ms": _p(loop.advance_s, 50, ctx, "advance p50"),
        "serve.advance_p99_ms": _p(loop.advance_s, 99, ctx, "advance p99"),
        "serve.read_p50_ms": _p(loop.read_s, 50, ctx, "read p50"),
    }
    return {k: v for k, v in out.items() if v is not None}


def run(ctx) -> Outcome:
    if ctx.trace:
        return _run_traced(ctx)
    loop, facts = _serve(ctx, None)
    # In the closed loop each connection waits for every reply, so the
    # throughput carries the round trips end to end.
    metrics = {
        "setup_s": median(facts["setup_waves_s"]),
        "sim_fn_min_per_s": N_FUNCTIONS * loop.n_advances / facts["loop_s"],
        "peak_rss_mb": facts["peak_rss_mb"],
        **_check(ctx, loop, None),
    }
    record = {
        "inputs": _provenance(ctx, loop),
        "latency_ms": _latencies(ctx, loop),
        "samples": {"advance": len(loop.advance_s), "read": len(loop.read_s),
                    "advance_tail_ms": [
                        1e3 * x for x in sorted(loop.advance_s)[-20:]
                    ],
                    "advances_per_s": loop.n_advances / facts["loop_s"],
                    "setup_waves_s": facts["setup_waves_s"],
                    "loop_s": facts["loop_s"], "boot_s": facts["boot_s"]},
        "statuses": dict(loop.tally.statuses),
    }
    return Outcome(metrics, record)


# -- traced run ----------------------------------------------------------------

def _in_process(loop: Loop, journal_dir: Path, tracer: Tracer | None):
    """Replay the quality tenants through ``SessionManager`` with a
    journal, on this thread. Returns per-advance loop seconds and the
    encode/response/decision/snapshot observations."""
    manager = SessionManager(
        journal=JournalSupervisor(journal_dir, every_minutes=COMPACT_EVERY)
    )
    step_s: list[float] = []
    facts: dict[str, list[float]] = {
        "response_bytes": [], "decisions": [],
        "snapshot_bytes": [],
    }

    for j in range(QUALITY_TENANTS):
        counts = loop.inputs[j]
        with maybe_span(tracer, "serve-tenants.inprocess", rid=f"tenant-{j}"):
            sid = manager.create(spec(j))["id"]
            for minute in range(HORIZON):
                t0 = time.perf_counter()
                result = manager.advance(sid, advance_body(counts, minute))
                with maybe_span(tracer, "serve.encode"):
                    body = json.dumps(result).encode()
                step_s.append(time.perf_counter() - t0)
                facts["response_bytes"].append(len(body))
                facts["decisions"].append(len(result["decisions"]))
                for kind, fid in reads_after(minute, N_FUNCTIONS):
                    if kind == "metrics":
                        manager.metrics(sid)
                    else:
                        manager.decisions(sid, fid)
            for snap in journal_dir.glob(f"{sid}.snapshot.json"):
                facts["snapshot_bytes"].append(snap.stat().st_size)
            manager.close(sid)
    return step_s, facts


def _run_traced(ctx) -> Outcome:
    tracer = Tracer()
    loop, serve_facts = _serve(ctx, tracer)
    quality_metrics = _check(ctx, loop, tracer)

    untraced_s, _ = _in_process(loop, ctx.work / "untraced", None)
    tracer.wrap(serve_app, "open_session_from_spec", "runtime.open")
    tracer.wrap(SessionManager, "advance", "serve.app.advance")
    tracer.wrap(SessionManager, "metrics", "serve.app.metrics")
    tracer.wrap(SessionManager, "decisions", "serve.app.decisions")
    tracer.wrap(ControlSession, "advance", "serve.session.advance")
    tracer.wrap(SessionJournal, "record_advance", "serve.journal.append")
    tracer.wrap(SessionJournal, "compact", "serve.journal.compact")
    try:
        traced_s, facts = _in_process(loop, ctx.work / "traced", tracer)
    finally:
        tracer.unwrap_all()

    def ms(name: str) -> float:
        return 1e3 * median(tracer.durations(name))

    app = ms("serve.app.advance")
    session = ms("serve.session.advance")
    latencies = _latencies(ctx, loop)
    client_p50 = latencies.get("serve.advance_p50_ms")
    ow = tracer.durations("runtime.run.openwhisk")
    pu = tracer.durations("runtime.run.pulse")
    self_times = tracer.self_times()
    metrics = {
        "traces.generate_s": median(tracer.durations("traces.generate")),
        "runtime.open_s": median(tracer.durations("runtime.open")),
        "runtime.run_openwhisk_s": median(ow) if ow else 0.0,
        "runtime.run_pulse_s": median(pu) if pu else 0.0,
        "core.pulse_extra_s": (median(pu) - median(ow)) if ow and pu else 0.0,
        "serve.boot_s": serve_facts["boot_s"],
        "serve.create_ms": 1e3 * median(loop.create_s),
        "serve.app.advance_ms": app,
        "serve.session.advance_ms": session,
        "serve.admission_journal_ms": app - session,
        **latencies,
        "serve.transport_ms": (client_p50 or 0.0) - app,
        "serve.journal.append_ms": ms("serve.journal.append"),
        "serve.journal.compact_ms": ms("serve.journal.compact"),
        "serve.journal.snapshot_bytes": median(facts["snapshot_bytes"]),
        "serve.encode_ms": ms("serve.encode"),
        "serve.response_bytes": median(facts["response_bytes"]),
        "serve.app.decisions_ms": ms("serve.app.decisions"),
        "serve.app.metrics_ms": ms("serve.app.metrics"),
        "obs.decisions_per_advance": sum(facts["decisions"])
        / len(facts["decisions"]),
        **guards(list(loop.batch.values())),
        **loop.tally.status_counts(),
        **{k: v for k, v in _provenance(ctx, loop).items()
           if k.startswith("traces.")},
        "obs.tracing_overhead_pct": 100.0
        * (median(traced_s) / median(untraced_s) - 1),
        "bench.traced_total_s": tracer.total(),
        "bench.unattributed_s": self_times.get("unattributed", 0.0),
    }
    record = {
        "inputs": _provenance(ctx, loop),
        "quality": quality_metrics,
        "self_times_s": self_times,
        "samples": {"advance": len(loop.advance_s), "read": len(loop.read_s),
                    "in_process_advances": len(traced_s)},
        "statuses": dict(loop.tally.statuses),
    }
    ctx.tracer = tracer
    return Outcome(metrics, record)
