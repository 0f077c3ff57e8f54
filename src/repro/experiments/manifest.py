"""Sweep run manifests: the durable record of a multi-run experiment.

A :class:`RunManifest` is one JSON file per sweep that names every run,
its status (``pending``/``running``/``done``/``failed``), attempt count,
artifact and checkpoint paths, and the content hashes of the trace and
sweep configuration it was created against. It is rewritten atomically
after every state transition, so at any instant — including the instant
a SIGKILL lands — the file on disk is a complete, parseable description
of exactly which runs finished.

That makes resume trivial and safe: ``repro sweep --resume MANIFEST``
reloads the manifest, rebuilds the trace from the recorded source,
verifies the hashes (a resume against a different trace or sweep config
is refused, not silently blended), skips ``done`` runs and restarts the
rest — from their last checkpoint when one exists.

Paths inside the manifest are relative to the manifest's directory, so a
sweep output directory can be archived or moved wholesale.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.traces.schema import Trace
from repro.utils.atomicio import atomic_write_json, sha256_bytes

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "RunRecord",
    "config_hash",
    "trace_hash",
]

#: Bumped whenever the manifest layout or the ``sweep_config`` key set
#: changes; ``load()`` refuses other versions up front.
#: v2: ``sweep_config`` lost its ``shards`` key (the fleet engine is no
#: longer partitioned), so a v1 manifest's config hash can never match
#: a rebuilt config — refusing it by version names the real cause
#: instead of a "sweep config mismatch".
MANIFEST_SCHEMA_VERSION = 2

#: Legal run states and the transitions the executor drives:
#: pending -> running -> done | failed; failed -> running (retry/resume).
RUN_STATUSES = ("pending", "running", "done", "failed")


def trace_hash(trace: Trace) -> str:
    """Content hash of a trace: the count matrix plus the function names
    (two traces with equal counts but different functions differ)."""
    names = "\x00".join(f.name for f in trace.functions)
    return sha256_bytes(
        trace.counts.tobytes()
        + names.encode()
        + str(trace.counts.shape).encode()
    )


def config_hash(config: dict[str, Any]) -> str:
    """Content hash of the sweep configuration (canonical JSON)."""
    return sha256_bytes(
        json.dumps(config, sort_keys=True, default=str).encode()
    )


@dataclass
class RunRecord:
    """One run's durable state inside the manifest."""

    run_id: str  # "<policy>/<run_index>"
    policy: str
    run_index: int
    status: str = "pending"
    attempts: int = 0
    artifact: str | None = None  # manifest-relative path of the summary JSON
    checkpoint: str | None = None  # manifest-relative path, when one exists
    error: dict[str, str] | None = None  # {kind, type, message} of last failure

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        return cls(**d)


@dataclass
class RunManifest:
    """The sweep's durable ledger (see module docstring)."""

    sweep_config: dict[str, Any]
    trace_sha256: str
    config_sha256: str
    runs: dict[str, RunRecord] = field(default_factory=dict)
    ingest: dict[str, Any] | None = None  # IngestReport.as_dict() when CSV-fed
    #: Executor totals, updated alongside run transitions.
    n_retries: int = 0
    n_timeouts: int = 0
    schema_version: int = MANIFEST_SCHEMA_VERSION
    #: Where this manifest lives on disk (set by save/load; not serialized).
    path: Path | None = field(default=None, compare=False)

    # -- construction --------------------------------------------------------
    @classmethod
    def create(
        cls,
        sweep_config: dict[str, Any],
        trace: Trace,
        policies: list[str],
        n_runs: int,
        ingest: dict[str, Any] | None = None,
    ) -> "RunManifest":
        manifest = cls(
            sweep_config=dict(sweep_config),
            trace_sha256=trace_hash(trace),
            config_sha256=config_hash(sweep_config),
            ingest=ingest,
        )
        for policy in policies:
            for idx in range(n_runs):
                rec = RunRecord(
                    run_id=f"{policy}/{idx:03d}", policy=policy, run_index=idx
                )
                manifest.runs[rec.run_id] = rec
        return manifest

    # -- queries -------------------------------------------------------------
    @property
    def n_done(self) -> int:
        return sum(1 for r in self.runs.values() if r.status == "done")

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.runs.values() if r.status == "failed")

    def incomplete(self) -> list[RunRecord]:
        """Runs a (re)started executor still has to drive, in id order."""
        return sorted(
            (r for r in self.runs.values() if r.status != "done"),
            key=lambda r: r.run_id,
        )

    def summary(self) -> dict[str, Any]:
        """Compact human-readable status (CLI output, test assertions)."""
        return {
            "runs": len(self.runs),
            "done": self.n_done,
            "failed": self.n_failed,
            "retries": self.n_retries,
            "timeouts": self.n_timeouts,
            "quarantined": (self.ingest or {}).get("n_quarantined", 0),
        }

    def verify_trace(self, trace: Trace) -> None:
        """Refuse to resume against a trace other than the original."""
        got = trace_hash(trace)
        if got != self.trace_sha256:
            raise ValueError(
                "trace content hash mismatch: manifest was created for "
                f"{self.trace_sha256[:12]}..., resume supplied {got[:12]}..."
            )

    # -- persistence ---------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "sweep_config": self.sweep_config,
            "trace_sha256": self.trace_sha256,
            "config_sha256": self.config_sha256,
            "ingest": self.ingest,
            "n_retries": self.n_retries,
            "n_timeouts": self.n_timeouts,
            "runs": {rid: r.as_dict() for rid, r in sorted(self.runs.items())},
        }

    def save(self, path: str | Path | None = None) -> Path:
        """Atomically (re)write the manifest; remembers ``path`` so later
        transitions can just call ``save()``."""
        if path is not None:
            self.path = Path(path)
        if self.path is None:
            raise ValueError("manifest has no path; pass one to save()")
        return atomic_write_json(self.path, self.as_dict())

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        path = Path(path)
        with open(path) as fh:
            d = json.load(fh)
        version = d.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: manifest schema v{version} is not readable by "
                f"this build (expects v{MANIFEST_SCHEMA_VERSION})"
            )
        manifest = cls(
            sweep_config=d["sweep_config"],
            trace_sha256=d["trace_sha256"],
            config_sha256=d["config_sha256"],
            ingest=d.get("ingest"),
            n_retries=d.get("n_retries", 0),
            n_timeouts=d.get("n_timeouts", 0),
            runs={
                rid: RunRecord.from_dict(rd) for rid, rd in d["runs"].items()
            },
            path=path,
        )
        return manifest
