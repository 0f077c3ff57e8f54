"""Exporters: JSONL decision traces and cross-run session merging.

The JSONL trace is the durable form of a run's telemetry — one JSON
object per line, streamable and greppable:

- line 1: a ``header`` record (schema version, policy name, headline
  ``RunResult`` numbers) so a trace is self-describing;
- then every decision record, in simulation order (``plan`` / ``cold`` /
  ``peak`` / ``downgrade`` — see :mod:`repro.obs.session`);
- then one ``metrics`` record (the registry as a flat dict) and one
  ``spans`` record (phase timings), when those layers were enabled.

Fleet-scale runs stream: :class:`StreamingTraceWriter` appends body
records to a ``<path>.part`` sidecar with a bounded flush interval while
the run is still going, then ``finalize`` assembles the canonical
artifact atomically (a crash mid-run leaves the sidecar behind as the
partial trace instead of a torn final file). :func:`render_prometheus`
snapshots a session's metrics registry in the Prometheus text
exposition format for scrape-style consumers.

This module deliberately imports nothing from ``repro.runtime`` —
``runtime.metrics`` imports :mod:`repro.obs`, so the dependency edge
must stay one-directional. ``RunResult`` is consumed duck-typed.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Iterable, Mapping

from repro.obs.metrics import Histogram, HistogramSummary, LabelKey
from repro.obs.session import ObsSession
from repro.utils.atomicio import atomic_writer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "StreamingTraceWriter",
    "merge_sessions",
    "read_trace_jsonl",
    "render_prometheus",
    "trace_records",
    "write_prometheus",
    "write_trace_jsonl",
]

#: Bumped whenever a record shape changes incompatibly.
TRACE_SCHEMA_VERSION = 1


def _header(result) -> dict:
    """The self-describing first line of a trace (duck-typed RunResult)."""
    return {
        "kind": "header",
        "schema_version": TRACE_SCHEMA_VERSION,
        "policy": result.policy_name,
        "n_invocations": result.n_invocations,
        "n_warm": result.n_warm,
        "n_cold": result.n_cold,
        "n_forced_downgrades": result.n_forced_downgrades,
        "n_spawn_failures": getattr(result, "n_spawn_failures", 0),
        "n_retries": getattr(result, "n_retries", 0),
        "n_policy_faults": getattr(result, "n_policy_faults", 0),
        "n_degraded_minutes": getattr(result, "n_degraded_minutes", 0),
        "keepalive_cost_usd": result.keepalive_cost_usd,
        "total_service_time_s": result.total_service_time_s,
        "mean_accuracy": result.mean_accuracy,
        "wall_clock_s": result.wall_clock_s,
    }


def _require_session(result) -> ObsSession:
    obs = result.obs
    if obs is None or not obs.enabled:
        raise ValueError(
            "run has no observability session; re-run with "
            "SimulationConfig(observe=True) (CLI: --trace-out implies it)"
        )
    return obs


def _tail_records(obs: ObsSession) -> Iterable[dict]:
    """The metrics/spans records that close out a trace."""
    if obs.metrics_enabled:
        yield {"kind": "metrics", "values": obs.metrics.as_flat_dict()}
    if obs.spans_enabled:
        yield {"kind": "spans", "phases": obs.spans.as_dict()}


def trace_records(result) -> Iterable[dict]:
    """Yield every JSONL record for ``result`` (header, decisions,
    metrics, spans) without touching the filesystem."""
    obs = _require_session(result)
    yield _header(result)
    yield from obs.records
    yield from _tail_records(obs)


def write_trace_jsonl(result, path) -> int:
    """Dump ``result``'s decision trace to ``path``; returns the number
    of records written."""
    n = 0
    with atomic_writer(path, encoding="utf-8") as fh:
        for rec in trace_records(result):
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


class StreamingTraceWriter:
    """Incremental JSONL trace sink for long fleet runs.

    Body records (decision records, or any dict) are appended to a
    ``<path>.part`` sidecar and flushed to the OS every ``flush_every``
    records, so a crash mid-run loses at most one flush interval and
    leaves the sidecar behind as the partial trace. ``finalize(result)``
    assembles the canonical artifact — header line, streamed body,
    metrics/spans tail — through :func:`~repro.utils.atomicio.atomic_writer`
    (same-directory temp file, fsync, rename), removes the sidecar, and
    returns the total record count. The final path never holds a torn
    trace: it either doesn't exist yet or is complete.

    Usable as a context manager; exiting on an exception keeps the
    sidecar (it is the crash artifact), exiting cleanly without
    ``finalize`` just closes it.
    """

    def __init__(self, path, flush_every: int = 256):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = os.fspath(path)
        self.part_path = self.path + ".part"
        self.flush_every = int(flush_every)
        self.n_body = 0
        self._fh = open(self.part_path, "w", encoding="utf-8")

    def write(self, record: dict) -> None:
        """Append one body record; flushes every ``flush_every`` writes."""
        self._fh.write(json.dumps(record, separators=(",", ":")))
        self._fh.write("\n")
        self.n_body += 1
        if self.n_body % self.flush_every == 0:
            self._fh.flush()

    def write_many(self, records: Iterable[dict]) -> None:
        for rec in records:
            self.write(rec)

    def finalize(self, result) -> int:
        """Assemble the final trace at ``path`` atomically; returns the
        number of records written (header + body + tail)."""
        obs = _require_session(result)
        self.close()
        n = 1 + self.n_body
        with atomic_writer(self.path, encoding="utf-8") as out:
            out.write(json.dumps(_header(result), separators=(",", ":")))
            out.write("\n")
            with open(self.part_path, encoding="utf-8") as body:
                for chunk in iter(lambda: body.read(1 << 20), ""):
                    out.write(chunk)
            for rec in _tail_records(obs):
                out.write(json.dumps(rec, separators=(",", ":")))
                out.write("\n")
                n += 1
        os.remove(self.part_path)
        return n

    def close(self) -> None:
        """Close the sidecar handle (idempotent); the sidecar file stays
        on disk until ``finalize`` consumes it."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "StreamingTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace_jsonl(path) -> list[dict]:
    """Load a JSONL trace back into a list of record dicts (blank lines
    are skipped, so hand-edited traces still load)."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


@functools.lru_cache(maxsize=4096)
def _prom_prefix(name: str, key: LabelKey) -> str:
    """``name{k="v",...} `` for one series: escaped and formatted once,
    since a series' name and labels do not change between scrapes."""
    if key:
        inner = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in key)
        return f"{name}{{{inner}}} "
    return f"{name} "


@functools.lru_cache(maxsize=1024)
def _prom_head(name: str, kind: str, help: str) -> str:
    """A metric's ``# HELP`` / ``# TYPE`` lines."""
    if help:
        return f"# HELP {name} {_prom_escape(help)}\n# TYPE {name} {kind}"
    return f"# TYPE {name} {kind}"


def render_prometheus(session: ObsSession) -> str:
    """A session's metrics registry in the Prometheus text exposition
    format (one scrape-shaped snapshot, not a live endpoint).

    Counters and gauges render one series per label set. Histograms
    render as ``summary`` pairs (``<name>_count`` / ``<name>_sum``) plus
    ``<name>_min`` / ``<name>_max`` series — the min/max suffixes are
    not part of the standard exposition format but mirror the summary
    kept by :class:`~repro.obs.metrics.Histogram`, which stores no
    buckets or quantiles. A scrape formats only the values: each
    series' ``name{labels}`` prefix is cached.
    """
    if session is None or not session.metrics_enabled:
        raise ValueError(
            "session has no metrics registry; re-run with observability "
            "(and metrics) enabled"
        )
    lines: list[str] = []
    for metric in sorted(session.metrics, key=lambda m: m.name):
        if not metric.series:
            continue
        name = metric.name
        if isinstance(metric, Histogram):
            lines.append(_prom_head(name, "summary", metric.help))
            for key, summary in sorted(metric.series.items()):
                assert isinstance(summary, HistogramSummary)
                for suffix, v in summary.as_dict().items():
                    prefix = _prom_prefix(f"{name}_{suffix}", key)
                    lines.append(f"{prefix}{float(v):g}")
        else:
            lines.append(_prom_head(name, metric.kind, metric.help))
            for key, value in sorted(metric.series.items()):
                lines.append(f"{_prom_prefix(name, key)}{float(value):g}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(session: ObsSession, path) -> int:
    """Write :func:`render_prometheus` output atomically; returns the
    number of exposition lines written."""
    text = render_prometheus(session)
    with atomic_writer(path, encoding="utf-8") as fh:
        fh.write(text)
    return text.count("\n")


def merge_sessions(sessions: Iterable[ObsSession]) -> ObsSession | None:
    """Fold many runs' sessions into one aggregate (sweep telemetry).

    Counters and histograms accumulate, gauges keep the last run's
    value, spans sum. Per-run decision records are dropped — they only
    make sense against their own run's timeline. Returns ``None`` when
    no input session is enabled (e.g. the sweep ran unobserved).
    """
    merged: ObsSession | None = None
    for s in sessions:
        if s is None or not s.enabled:
            continue
        if merged is None:
            merged = ObsSession(s.config)
            merged.n_runs = 0
        merged.merge(s)
    if merged is not None:
        merged.records = []
    return merged


def merged_flat_metrics(sessions_by_policy: Mapping[str, ObsSession | None]) -> dict[str, dict[str, float]]:
    """Convenience for sweep reports: ``{policy: flat metrics dict}`` for
    every policy whose merged session carried a metrics registry."""
    out: dict[str, dict[str, float]] = {}
    for name, session in sessions_by_policy.items():
        if session is not None and session.metrics_enabled:
            out[name] = session.metrics.as_flat_dict()
    return out
