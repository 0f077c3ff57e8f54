"""Durable sweep execution: crash-isolated workers, retries, resume.

The plain sweep runner (:func:`repro.experiments.runner.run_policies`)
executes runs in-process or in a shared pool — fine until a worker hangs,
is OOM-killed, or the sweep process itself dies, at which point every
completed run is lost. This module trades a little throughput for
survivability:

- **one OS process per run attempt** — a SIGKILL, a segfault or an
  unpicklable crash takes down exactly one attempt, never the pool;
- **per-attempt wall-clock timeouts** — a hung worker is killed and
  retried instead of wedging the sweep;
- **bounded retries with seeded jittered backoff** — transient failures
  are re-attempted (from the run's last engine checkpoint when one
  exists) a fixed number of times, then recorded as failed;
- **a :class:`~repro.experiments.manifest.RunManifest`** rewritten
  atomically at every transition, so the sweep can be resumed after any
  interruption, skipping ``done`` runs and restarting the rest from
  their checkpoints.

Workers write their artifact — the run's headline summary as canonical
JSON, minus the nondeterministic ``wall_clock_s`` — atomically, so a
``done`` run's artifact is always complete, and a resumed sweep's
artifacts are byte-identical to an uninterrupted one (the chaos tests
pin this).

Deterministic chaos hooks (``chaos="kill:N"`` / ``"hang:N"``) make the
failure path testable: the worker SIGKILLs itself (or hangs) right after
its N-th engine checkpoint, on the first attempt of every run only, so a
chaos sweep must exercise kill -> retry -> resume-from-checkpoint on
each run and still converge to clean-run artifacts.
"""

from __future__ import annotations

import json
import os
import signal
import time
import zlib
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing import Process
from pathlib import Path
from typing import Any

from repro.experiments.manifest import RunManifest, RunRecord, config_hash
from repro.experiments.runner import ExperimentConfig
from repro.experiments.assignments import sample_assignments
from repro.models.zoo import ModelZoo, default_zoo
from repro.obs.session import ObservabilityConfig, ObsSession
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.simulator import Simulation
from repro.traces.schema import IngestReport, Trace
from repro.utils.atomicio import atomic_write_json
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive_int

__all__ = ["DurableSweepConfig", "SweepResult", "run_durable_sweep"]

#: Fields of RunResult.summary() that measure the machine rather than the
#: simulated system; excluded from artifacts so clean/resumed/retried
#: runs produce byte-identical files.
_NONDETERMINISTIC_FIELDS = ("wall_clock_s",)


@dataclass(frozen=True)
class DurableSweepConfig:
    """Durability knobs for one sweep (orthogonal to ``ExperimentConfig``).

    ``timeout_s`` — per-attempt wall-clock budget (``None`` disables).
    ``max_retries`` — extra attempts after the first, per run.
    ``backoff_s`` — base of the exponential retry backoff; the delay for
    attempt *k* is ``backoff_s * 2**(k-1)``, jittered up to +50 % by a
    per-run RNG seeded from ``backoff_seed`` (deterministic, but
    decorrelated across runs so retries do not stampede).
    ``checkpoint_every`` — engine checkpoint cadence in trace minutes.
    ``chaos`` — ``None``, ``"kill:N"`` or ``"hang:N"``: first-attempt
    fault injection after the N-th checkpoint (tests/CI only).
    """

    timeout_s: float | None = None
    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_seed: int = 0
    checkpoint_every: int = 240
    poll_interval_s: float = 0.02
    chaos: str | None = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        check_positive_int("checkpoint_every", self.checkpoint_every)
        if self.chaos is not None:
            _parse_chaos(self.chaos)  # validate eagerly


def _parse_chaos(spec: str) -> tuple[str, int]:
    kind, sep, arg = spec.partition(":")
    if kind not in ("kill", "hang") or not sep or not arg.isdigit() or int(arg) < 1:
        raise ValueError(
            f"chaos spec must be 'kill:N' or 'hang:N' (N >= 1), got {spec!r}"
        )
    return kind, int(arg)


@dataclass
class SweepResult:
    """What a durable sweep hands back: the manifest plus loaded artifacts.

    ``summaries[policy][run_index]`` is the run's artifact dict, or
    ``None`` for a run that exhausted its retries. ``ok`` is the sweep's
    exit health — callers (the CLI) turn ``not ok`` into a non-zero exit.
    """

    manifest: RunManifest
    summaries: dict[str, list[dict[str, Any] | None]]
    obs: ObsSession

    @property
    def ok(self) -> bool:
        return self.manifest.n_failed == 0


# -- worker side -------------------------------------------------------------

def _chaos_hook(spec: str):
    """An on_snapshot callback that injects the configured fault."""
    kind, after = _parse_chaos(spec)
    seen = 0

    def hook(_state) -> None:
        nonlocal seen
        seen += 1
        if seen < after:
            return
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        while True:  # hang: wedge until the parent's timeout kills us
            time.sleep(3600)

    return hook


def _durable_worker(payload: dict[str, Any]) -> None:
    """One run attempt, in its own process.

    Resumes from the checkpoint file when one exists, checkpoints
    periodically, writes the artifact atomically, and converts any
    exception into an error sidecar + non-zero exit. The parent only
    ever sees an exit code and files — nothing here can corrupt it.
    """
    from repro.api import make_policy, policy_spec

    artifact_path = Path(payload["artifact_path"])
    error_path = Path(payload["error_path"])
    try:
        trace: Trace = payload["trace"]
        policy_name: str = payload["policy"]
        cfg = payload["sim"]
        spec = policy_spec(policy_name)
        if payload["honor_policy_window"] and (
            cfg.keep_alive_window != spec.keep_alive_window
        ):
            cfg = replace(cfg, keep_alive_window=spec.keep_alive_window)
        policy = make_policy(policy_name, resilient=payload["resilient"])

        ckpt_path = Path(payload["checkpoint_path"])
        chaos = payload["chaos"] if payload["attempt"] == 1 else None
        checkpoint: CheckpointConfig | None = CheckpointConfig(
            path=ckpt_path,
            every_minutes=payload["checkpoint_every"],
            on_snapshot=_chaos_hook(chaos) if chaos else None,
        )
        resume_from = ckpt_path if ckpt_path.exists() else None
        if payload["engine"] == "fleet":
            # The fleet kernel has no checkpoint/resume; its runs are fast
            # enough that a retried attempt simply restarts from minute 0.
            checkpoint = None
            resume_from = None

        result = Simulation(trace, payload["assignment"], policy, cfg).run(
            payload["engine"],
            checkpoint=checkpoint,
            resume_from=resume_from,
        )
        summary = {
            k: v
            for k, v in result.summary().items()
            if k not in _NONDETERMINISTIC_FIELDS
        }
        summary["run_id"] = payload["run_id"]
        summary["run_index"] = payload["run_index"]
        summary["n_checkpoints"] = result.n_checkpoints
        atomic_write_json(artifact_path, summary)
        error_path.unlink(missing_ok=True)  # stale sidecar from a failed attempt
    except Exception as exc:  # noqa: BLE001 - crash isolation boundary
        import traceback as tb

        atomic_write_json(
            error_path,
            {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(
                    tb.format_exception(type(exc), exc, exc.__traceback__)
                ),
            },
        )
        raise SystemExit(1)


# -- parent side -------------------------------------------------------------

def _slug(run_id: str) -> str:
    return run_id.replace("/", "-")


def _retry_delay(cfg: DurableSweepConfig, run_id: str, attempt: int) -> float:
    """Deterministic jittered exponential backoff for one run's attempt."""
    rng = rng_from_seed(cfg.backoff_seed + zlib.crc32(run_id.encode()))
    base = cfg.backoff_s * (2 ** max(0, attempt - 1))
    return base * (1.0 + 0.5 * float(rng.random()))


def run_durable_sweep(
    trace: Trace,
    policies: list[str],
    config: ExperimentConfig,
    *,
    out_dir: str | Path,
    durable: DurableSweepConfig | None = None,
    resume: RunManifest | None = None,
    zoo: ModelZoo | None = None,
    ingest: IngestReport | None = None,
    resilient: bool = False,
    sweep_config_extra: dict[str, Any] | None = None,
) -> SweepResult:
    """Run (or resume) a durable multi-policy sweep under ``out_dir``.

    Fresh sweeps create ``out_dir/manifest.json``; ``resume`` takes a
    loaded manifest instead, verifies the trace/config content hashes,
    skips ``done`` runs and drives the rest (from their checkpoints where
    they left one). Returns a :class:`SweepResult`; inspect ``.ok`` — a
    sweep with failed runs completes rather than raising.
    """
    durable = durable or DurableSweepConfig()
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    ckpt_dir = out_dir / "checkpoints"
    runs_dir.mkdir(parents=True, exist_ok=True)
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    sweep_config: dict[str, Any] = {
        "policies": list(policies),
        "n_runs": config.n_runs,
        "horizon_minutes": config.horizon_minutes,
        "seed": config.seed,
        "engine": config.engine,
        "sim": repr(config.sim),
        "resilient": resilient,
        **(sweep_config_extra or {}),
    }
    if resume is None:
        manifest = RunManifest.create(
            sweep_config,
            trace,
            policies,
            config.n_runs,
            ingest=ingest.as_dict() if ingest is not None else None,
        )
        manifest.save(out_dir / "manifest.json")
    else:
        manifest = resume
        manifest.verify_trace(trace)
        if manifest.config_sha256 != config_hash(sweep_config):
            raise ValueError(
                "sweep config mismatch: the manifest was created with a "
                "different policy set / run count / engine / sim config; "
                "resume with the original parameters"
            )
        if manifest.path is None:
            manifest.path = out_dir / "manifest.json"

    zoo = zoo or default_zoo()
    assignments = sample_assignments(
        trace.n_functions, config.n_runs, zoo, seed=config.seed
    )

    # Sweep-level telemetry: executor counters, separate from each run's
    # own (in-worker) session.
    obs = ObsSession(ObservabilityConfig(spans=False, decisions=False))
    retries_c = obs.metrics.counter(
        "sweep_retries_total", "run attempts beyond the first"
    )
    timeouts_c = obs.metrics.counter(
        "sweep_timeouts_total", "attempts killed by the wall-clock timeout"
    )
    failures_c = obs.metrics.counter(
        "sweep_run_failures_total", "runs that exhausted their retries"
    )
    done_c = obs.metrics.counter("sweep_runs_done_total", "runs completed")

    def paths_for(rec: RunRecord) -> tuple[Path, Path, Path]:
        slug = _slug(rec.run_id)
        return (
            runs_dir / f"{slug}.json",
            runs_dir / f"{slug}.error.json",
            ckpt_dir / f"{slug}.ckpt",
        )

    def spawn(rec: RunRecord) -> Process:
        artifact, error, ckpt = paths_for(rec)
        rec.attempts += 1
        rec.status = "running"
        manifest.save()
        payload = {
            "run_id": rec.run_id,
            "run_index": rec.run_index,
            "policy": rec.policy,
            "trace": trace,
            "assignment": assignments[rec.run_index],
            "sim": config.sim,
            "engine": config.engine,
            "resilient": resilient,
            "honor_policy_window": True,
            "artifact_path": str(artifact),
            "error_path": str(error),
            "checkpoint_path": str(ckpt),
            "checkpoint_every": durable.checkpoint_every,
            "chaos": durable.chaos,
            "attempt": rec.attempts,
        }
        proc = Process(target=_durable_worker, args=(payload,), daemon=True)
        proc.start()
        return proc

    def settle(rec: RunRecord, kind: str) -> None:
        """A non-zero attempt outcome: record, then retry or fail."""
        artifact, error, ckpt = paths_for(rec)
        detail: dict[str, str] = {"kind": kind}
        if error.exists():
            try:
                with open(error) as fh:
                    err = json.load(fh)
                detail = {
                    "kind": kind,
                    "type": err.get("type", ""),
                    "message": err.get("message", ""),
                }
            # repro: lint-ok[RPR006] a missing sidecar means the worker
            # died before writing one; the generic `kind` detail below
            # still records the failure (torn sidecars can't happen: atomic)
            except (OSError, json.JSONDecodeError):
                pass
        rec.error = detail
        if kind == "timeout":
            manifest.n_timeouts += 1
            timeouts_c.inc()
        if rec.attempts <= durable.max_retries:
            manifest.n_retries += 1
            retries_c.inc()
            rec.status = "pending"
            retry_at[rec.run_id] = (
                time.monotonic() + _retry_delay(durable, rec.run_id, rec.attempts)
            )
            waiting.append(rec)
        else:
            rec.status = "failed"
            failures_c.inc()
        manifest.save()

    todo = manifest.incomplete()
    # Runs already marked running belong to a dead executor: their
    # processes are gone, only their checkpoints remain — restart them.
    for rec in todo:
        if rec.status == "running":
            rec.status = "pending"
    manifest.save()

    waiting: deque[RunRecord] = deque(todo)
    retry_at: dict[str, float] = {}
    active: dict[str, tuple[Process, RunRecord, float]] = {}
    try:
        while waiting or active:
            # Fill free slots with runs whose backoff has elapsed.
            now = time.monotonic()
            for _ in range(len(waiting)):
                if len(active) >= config.n_jobs:
                    break
                rec = waiting.popleft()
                if retry_at.get(rec.run_id, 0.0) > now:
                    waiting.append(rec)
                    continue
                active[rec.run_id] = (spawn(rec), rec, now)

            time.sleep(durable.poll_interval_s)
            now = time.monotonic()
            for run_id in list(active):
                proc, rec, started = active[run_id]
                if proc.is_alive():
                    if (
                        durable.timeout_s is not None
                        and now - started > durable.timeout_s
                    ):
                        proc.kill()
                        proc.join()
                        proc.close()
                        del active[run_id]
                        settle(rec, "timeout")
                    continue
                proc.join()
                code = proc.exitcode
                proc.close()
                del active[run_id]
                artifact, _error, _ckpt = paths_for(rec)
                if code == 0 and artifact.exists():
                    rec.status = "done"
                    rec.artifact = str(artifact.relative_to(out_dir))
                    ckpt = paths_for(rec)[2]
                    rec.checkpoint = (
                        str(ckpt.relative_to(out_dir)) if ckpt.exists() else None
                    )
                    rec.error = None
                    done_c.inc()
                    manifest.save()
                else:
                    settle(rec, "exception" if code == 1 else "killed")
    finally:
        for proc, rec, _started in active.values():
            proc.kill()
            proc.join()
            # Killed mid-flight by an outer interrupt: the manifest keeps
            # them "running"; the next resume restarts them.
        manifest.save()

    summaries: dict[str, list[dict[str, Any] | None]] = {
        p: [None] * config.n_runs for p in policies
    }
    for rec in manifest.runs.values():
        if rec.status == "done" and rec.artifact is not None:
            with open(out_dir / rec.artifact) as fh:
                summaries[rec.policy][rec.run_index] = json.load(fh)
    return SweepResult(manifest=manifest, summaries=summaries, obs=obs)
