"""Engine checkpoints: durable mid-run state for crash-safe resume.

Both engines (reference and fleet) can periodically capture a
:class:`SimulationState` — a complete, self-contained snapshot of every
piece of mutable run state at a minute boundary — and a later process can
hand that state back to :meth:`repro.runtime.simulator.Simulation.run`
to continue the run as if it had never been interrupted. Capture is a
hook of the one batch driver (:func:`repro.runtime.driver.drive`), so
the cadence, the counters and the cursor are the same code for both
engines.

The bit-identity contract
-------------------------
A resumed run must produce **byte-identical** results to an uninterrupted
one (pinned by ``tests/test_runtime_checkpoint.py``). Two design rules
make that hold:

- *One pickle payload.* Everything mutable — the policy (with its
  estimators and cached plan objects), the schedule (whose uniform-plan
  fast path compares plan objects by identity), the container pool, the
  event log, the observability session, the capacity RNG, the fault
  injector and the scalar accumulators — is pickled as **one** object
  graph, so shared references (the policy's cached plan inside
  ``schedule._last_plan``, the event log inside the pool) survive the
  round trip with their identities intact.
- *Boundary capture only.* Snapshots are taken between event groups,
  where the engine's local float accumulations are fully settled;
  immutable derived structures (the event table, metric handles) are
  re-derived from the trace and the restored session on resume.

Wall-clock fields (``wall_clock_s``, ``policy_overhead_s`` under
``measure_overhead``) measure the machine, not the simulated system, and
are exempt — exactly as in the engine-equivalence golden tests.

Cadence
-------
``CheckpointConfig.every_minutes`` buckets the horizon. One rule holds
for every engine: a snapshot fires before the first *event group*
(minute with >= 1 invocation) of each new bucket, with the idle minutes
before that group still unaccounted; an all-idle bucket captures
nothing. The cadence is a pure function of the trace, so an interrupted
run and a clean run write checkpoints at the same minutes — which is
what keeps checkpoint counters identical between them — and both
engines capture at the same ``next_minute`` values. The cursor is just the
bucket: ``(bucket,)`` for engine checkpoints, ``()`` for session
snapshots.

On disk a snapshot is the JSON wire envelope
(:meth:`SimulationState.to_wire_json`), so :meth:`SimulationState.load`
checks the format, the schema version and one SHA-256 over its header
and payload before anything is unpickled.
"""

from __future__ import annotations

import base64
import binascii
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.utils.atomicio import atomic_write_bytes, canonical_json, sha256_bytes
from repro.utils.validation import check_positive_int

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "SNAPSHOT_FIELDS",
    "WIRE_FIELDS",
    "WIRE_FORMAT",
    "CheckpointConfig",
    "SimulationState",
]

#: Bumped whenever the snapshot layout changes incompatibly; load()
#: refuses mismatched versions instead of resuming garbage.
#: v2: the fast loop's payload gained an incremental ``n_invocations``
#: accumulator (the stepper refactor serves minutes one at a time, so
#: the total can no longer be recomputed as a whole-trace sum at the
#: end), and ``repro.serve`` session snapshots (``engine="session:*"``)
#: joined the format. v2 also defines the JSON wire envelope
#: (``to_wire_json``/``from_wire_json``): the same payload bytes in a
#: versioned, integrity-checked JSON carrier — the pickle layout is
#: unchanged, so no bump; envelopes embed this version and refuse
#: mismatches exactly like ``load()``.
#: v3: the fleet payload's ``fleet`` entry is one unpartitioned
#: ``FleetState`` over fids ``0..n-1`` (it was a ``FleetShards`` set of
#: per-shard ``_Shard`` objects), and the pickled ``FleetObsSession``
#: state lost its ``n_shards`` / ``shard_invocations`` / ``shard_cold``
#: fields. A v2 fleet snapshot would unpickle into classes that no
#: longer exist, so v2 is refused up front with the version message.
#: v4: one cursor shape. Engine checkpoints carry just the cadence
#: bucket, ``(bucket,)`` (the fast loop's ``(group, event, prev_t,
#: bucket)`` cursor is gone: the shared driver re-derives its position
#: from ``next_minute``), and session snapshots carry ``()``. The fleet
#: payload gained ``n_checkpoints`` (fleet runs checkpoint now) and lost
#: ``next_minute``, which rides on ``SimulationState.next_minute`` as
#: on the other engines. ``save``/``load`` write and read the JSON wire
#: envelope instead of a pickled ``SimulationState``.
#: v5: the envelope's ``payload_sha256`` digests the canonical header
#: (``format``, ``schema_version``, ``engine``, ``next_minute``,
#: ``cursor``) together with the payload, so a hand-edited or corrupted
#: header is refused instead of resuming at the wrong minute. The key set
#: and the pickle layout are unchanged; v4 envelopes fail the version
#: check.
#: v6: the fast engine is gone, and with it ``SNAPSHOT_FIELDS["fast"]``.
#: A v5 file may hold a ``"fast"`` or ``"session:fast"`` snapshot that
#: no engine can restore, so v5 is refused with the version message;
#: the reference and fleet payloads are unchanged.
#: v7: the pickled PULSE policy changed layout. The reference
#: estimator's per-function history keeps its histograms as ``int``
#: lists with running in-window sums and caches ``float`` lists (it
#: held ``int64``/``float64`` arrays), so a v6 reference or session
#: snapshot would restore a history the estimator can no longer read;
#: v6 is refused with the version message. Field sets are unchanged.
CHECKPOINT_SCHEMA_VERSION = 7

#: The snapshot schema: per engine key, the fields each stepper's
#: payload carries, in payload order. :meth:`repro.runtime.driver.
#: Stepper.live_state` builds the payload from this entry and its
#: restore refuses a payload whose key set differs, so this table is
#: the one place that says what a snapshot holds. Changing it changes
#: what ``CHECKPOINT_SCHEMA_VERSION`` names: bump the version and add a
#: ``v<N>:`` migration note above (pinned by
#: ``tests/test_runtime_checkpoint.py``). The order is part of the
#: payload bytes.
SNAPSHOT_FIELDS: dict[str, tuple[str, ...]] = {
    "reference": (
        "policy",
        "events",
        "obs",
        "schedule",
        "pool",
        "service_time",
        "accuracy_sum",
        "n_invocations",
        "n_warm",
        "n_cold",
        "overhead",
        "n_decisions",
        "total_mb_minutes",
        "mem_series",
        "ideal_series",
        "capacity_rng",
        "n_forced",
        "injector",
        "n_checkpoints",
        "last_arrival",
    ),
    "fleet": (
        "policy",
        "events",
        "obs",
        "model",
        "tables",
        "fleet",
        "pool",
        "injector",
        "service_time",
        "accuracy_sum",
        "n_invocations",
        "n_cold",
        "total_mb_minutes",
        "mem_series",
        "ideal_series",
        "n_checkpoints",
    ),
}

#: Format tag of the JSON wire envelope (:meth:`SimulationState.to_wire_json`).
WIRE_FORMAT = "repro-snapshot"

#: The wire-envelope schema: the exact key set ``to_wire_json`` emits
#: and ``from_wire_json`` accepts. The envelope embeds
#: ``CHECKPOINT_SCHEMA_VERSION`` — the wire format versions with the
#: snapshot schema, not separately.
WIRE_FIELDS: tuple[str, ...] = (
    "format",
    "schema_version",
    "engine",
    "next_minute",
    "cursor",
    "payload_sha256",
    "payload_b64",
)


def _envelope_digest(
    schema_version: Any, engine: Any, next_minute: Any, cursor: Any,
    payload: bytes,
) -> str:
    """SHA-256 over the envelope's canonical header and the payload, so
    neither can change without the other noticing."""
    header = canonical_json(
        [WIRE_FORMAT, schema_version, engine, next_minute, cursor]
    )
    return sha256_bytes(header.encode("utf-8") + b"\n" + payload)


def _is_int(value: Any) -> bool:
    """A JSON integer: ``int`` but not ``bool`` (and never a float)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimulationState:
    """One engine checkpoint: where the run is, plus everything mutable.

    ``engine`` records which engine produced it (``"reference"`` or
    ``"fleet"``, or ``"session:<name>"`` for a session snapshot) — a
    state can only resume on the engine that captured it.
    ``next_minute`` is the first minute not yet executed. ``cursor`` is
    the driver's checkpoint-cadence bucket, ``(bucket,)``, or ``()`` for
    a session snapshot. ``payload`` is a single pickle of the live
    object graph.
    """

    engine: str
    next_minute: int
    cursor: tuple
    payload: bytes
    schema_version: int = CHECKPOINT_SCHEMA_VERSION

    @classmethod
    def snapshot(
        cls, engine: str, next_minute: int, cursor: tuple, live: dict[str, Any]
    ) -> "SimulationState":
        """Capture the live state dict into a self-contained snapshot.

        Pickling immediately (rather than holding references) decouples
        the snapshot from the still-running engine: later minutes cannot
        mutate what was captured.
        """
        return cls(
            engine=engine,
            next_minute=next_minute,
            cursor=tuple(cursor),
            payload=pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def restore(self) -> dict[str, Any]:
        """Rehydrate the captured object graph (a fresh copy per call).

        Raises ``ValueError`` on a schema-version mismatch and on payload
        bytes that do not unpickle (unpickling raises whatever the
        bytes provoke, so every failure is folded into one type).
        """
        if self.schema_version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema v{self.schema_version} is not "
                f"readable by this build (expects v{CHECKPOINT_SCHEMA_VERSION})"
            )
        try:
            return pickle.loads(self.payload)
        except Exception as exc:
            raise ValueError(f"undecodable snapshot payload: {exc!r}") from exc

    # -- wire form -----------------------------------------------------------
    def to_wire_json(self) -> str:
        """The snapshot as a canonical-JSON wire envelope.

        This is the format snapshots travel in over HTTP (and the
        on-disk form the serve-layer journal compacts to): a versioned,
        inspectable JSON object instead of a raw pickle stream. The
        pickle payload rides inside as base64 with a SHA-256 of the
        header and the payload beside it, so the envelope round-trips
        **bit-identically** — ``payload`` bytes are preserved exactly —
        while transport corruption, an edited header and schema drift
        are detected before anything is unpickled.
        Deserializing the payload still executes pickle bytecode, so
        the serving layer only accepts envelopes from authenticated
        callers (see the bearer-token gate in :mod:`repro.serve.app`).
        """
        return canonical_json(
            {
                "format": WIRE_FORMAT,
                "schema_version": self.schema_version,
                "engine": self.engine,
                "next_minute": self.next_minute,
                "cursor": list(self.cursor),
                "payload_sha256": _envelope_digest(
                    self.schema_version, self.engine, self.next_minute,
                    list(self.cursor), self.payload,
                ),
                "payload_b64": base64.b64encode(self.payload).decode("ascii"),
            }
        )

    @classmethod
    def from_wire_json(cls, text: str | bytes) -> "SimulationState":
        """Rebuild a snapshot from :meth:`to_wire_json` output.

        Raises ``ValueError`` on anything that is not a well-formed,
        current-version, integrity-intact envelope — undecodable JSON,
        a foreign ``format`` tag, a key set other than ``WIRE_FIELDS``,
        a schema-version mismatch, a header field of the wrong type (a
        non-string ``engine``, a ``next_minute`` that is not an integer
        >= 0, a ``cursor`` that is not a list of integers), or a header
        or payload whose SHA-256 does not match.
        """
        if isinstance(text, bytes):
            text = text.decode("utf-8", errors="replace")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"undecodable snapshot envelope: {exc}") from exc
        if not isinstance(obj, dict) or obj.get("format") != WIRE_FORMAT:
            raise ValueError(
                "not a snapshot envelope: expected a JSON object with "
                f"format={WIRE_FORMAT!r}"
            )
        if set(obj) != set(WIRE_FIELDS):
            missing = [key for key in WIRE_FIELDS if key not in obj]
            unexpected = sorted(set(obj) - set(WIRE_FIELDS))
            detail = [
                f"{label} keys: {', '.join(keys)}"
                for label, keys in (("missing", missing), ("unexpected", unexpected))
                if keys
            ]
            raise ValueError(f"snapshot envelope has {'; '.join(detail)}")
        version = obj["schema_version"]
        if not _is_int(version) or version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"snapshot schema v{version} is not readable by this "
                f"build (expects v{CHECKPOINT_SCHEMA_VERSION})"
            )
        engine, next_minute, cursor = (
            obj["engine"], obj["next_minute"], obj["cursor"]
        )
        if not isinstance(engine, str):
            raise ValueError(f"snapshot engine must be a string, got {engine!r}")
        if not _is_int(next_minute) or next_minute < 0:
            raise ValueError(
                "snapshot next_minute must be a non-negative integer, "
                f"got {next_minute!r}"
            )
        if not isinstance(cursor, list) or not all(map(_is_int, cursor)):
            raise ValueError(
                f"snapshot cursor must be a list of integers, got {cursor!r}"
            )
        try:
            payload = base64.b64decode(obj["payload_b64"], validate=True)
        except (binascii.Error, TypeError) as exc:
            raise ValueError(f"undecodable snapshot payload: {exc}") from exc
        digest = _envelope_digest(version, engine, next_minute, cursor, payload)
        if digest != obj["payload_sha256"]:
            raise ValueError(
                "snapshot header or payload corrupt: sha256 mismatch "
                f"(expected {obj['payload_sha256']}, got {digest})"
            )
        return cls(
            engine=engine,
            next_minute=next_minute,
            cursor=tuple(cursor),
            payload=payload,
            schema_version=version,
        )

    # -- durable form --------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the snapshot's wire envelope to ``path`` atomically
        (crash-safe: a kill mid-write leaves the previous checkpoint
        intact)."""
        return atomic_write_bytes(
            Path(path), self.to_wire_json().encode("utf-8")
        )

    @classmethod
    def load(cls, path: str | Path) -> "SimulationState":
        """Read a snapshot written by :meth:`save`. Raises ``ValueError``
        (see :meth:`from_wire_json`) on a foreign, stale or corrupt file;
        nothing is unpickled until :meth:`restore`."""
        try:
            return cls.from_wire_json(Path(path).read_bytes())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class CheckpointConfig:
    """Periodic checkpointing for one run.

    ``path`` — where each snapshot is written (atomically, replacing the
    previous one); ``None`` keeps snapshots in memory only, for callers
    that consume them through ``on_snapshot``.
    ``every_minutes`` — cadence bucket width (see module docstring).
    ``on_snapshot`` — optional callback receiving each
    :class:`SimulationState` after it is (optionally) persisted; the test
    harness and the chaos hooks ride on this.
    """

    path: str | Path | None = None
    every_minutes: int = 240
    on_snapshot: Callable[[SimulationState], None] | None = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        check_positive_int("every_minutes", self.every_minutes)
        if self.path is None and self.on_snapshot is None:
            raise ValueError(
                "CheckpointConfig needs a path and/or an on_snapshot "
                "callback; otherwise snapshots would be discarded"
            )

    def emit(self, state: SimulationState) -> None:
        """Persist and/or hand off one snapshot (engine-side hook)."""
        if self.path is not None:
            state.save(self.path)
        if self.on_snapshot is not None:
            self.on_snapshot(state)
