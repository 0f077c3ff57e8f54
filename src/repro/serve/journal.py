"""Session persistence: the inputs document and the write-ahead journal.

A serve session is a pure function of the JSON spec it was opened from
and the advances it accepted (the sessions≡batch contract), so that is
all that persists — never engine state. :class:`SessionInputs` is that
persistent form; its JSON encoding is the **inputs document**::

    {"format": "repro-session-inputs", "v": 2,
     "spec": {...the POST /v1/sessions body...},
     "fingerprint": "<ControlSession.fingerprint() at open>",
     "records": [{"minute": 0, "invocations": {"3": 2}},
                 {"minute": 1, "invocations": null}, ...]}

``records`` are the successful advances in order (``null`` invocations
replay the trace column). ``GET /v1/sessions/{id}/snapshot`` returns
the document, ``POST /v1/sessions/restore`` accepts it, compaction
writes it, and :func:`repro.serve.app.rebuild_session` replays it.
Every byte read from the network or from disk is parsed as JSON and
each record by :func:`parse_advance`, the advance endpoint's own
parser; nothing is unpickled.

``repro serve --journal-dir`` gives every tenant a
:class:`SessionJournal`:

- ``<sid>.journal`` — append-only JSONL. Its first line is the
  session's inputs document with no records; each further line is one
  advance record, written **before** the engine steps. Appends flush
  to the kernel per record, so a SIGKILL never loses an acknowledged
  advance; fsync is batched at compaction and shutdown.
- ``<sid>.snapshot.json`` — the inputs document at the last
  compaction, written atomically and fsynced. Compaction fires on the
  first advance of each ``every_minutes``-wide bucket of session
  minutes, then resets the journal to its first line: it is the
  journal's fsync cadence.

Recovery (:meth:`JournalSupervisor.recover`) reads the document (else
the journal's first line), appends the journal's tail and rebuilds.
The engines are deterministic, so re-running an advance whose step may
or may not have completed before the crash converges to the same bytes;
a tail record the session refuses (the original call failed the same
way and never stepped) is skipped, and a torn final line is discarded
(its advance was never acknowledged).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.runtime.checkpoint import WIRE_FORMAT
from repro.utils.atomicio import (
    DurableAppender,
    atomic_write_text,
    canonical_json,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.session import ControlSession

__all__ = [
    "INPUTS_FORMAT",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "JournalSupervisor",
    "SessionInputs",
    "SessionJournal",
    "parse_advance",
]

#: Version of the journal and the inputs document. v2: a session
#: persists as its inputs. v1 persisted sessions as pickles; a v1
#: directory is refused with the version message and never unpickled.
JOURNAL_SCHEMA_VERSION = 2

#: Format tag of the inputs document.
INPUTS_FORMAT = "repro-session-inputs"

#: The inputs document's exact key set.
INPUTS_FIELDS = ("format", "v", "spec", "fingerprint", "records")

_ADVANCE_KEYS = frozenset({"minute", "invocations"})
_FID = re.compile(r"0|[1-9][0-9]*")


class JournalError(Exception):
    """A journal that cannot be recovered (corrupt record, fingerprint
    mismatch, unreadable document, old version) — never raised for a
    torn tail."""


def _is_int(value: Any) -> bool:
    """A JSON integer: ``int`` but not ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_advance(body: Any) -> tuple[int | None, dict[int, int] | None]:
    """Validate one advance — an HTTP body, an inputs-document record or
    a journal record — into ``(minute, invocations)``.

    The body must be a JSON object with at most the keys ``minute`` (a
    non-negative integer; absent or null means the session's next
    minute) and ``invocations`` (an object of decimal fid strings to
    positive integer counts; absent or null replays the trace column).
    Booleans are not integers. Raises ``ValueError`` naming the first
    violation; whether a minute or fid fits the session is the
    session's own check.
    """
    if not isinstance(body, dict):
        raise ValueError(
            f"an advance must be a JSON object, got {type(body).__name__}"
        )
    unknown = body.keys() - _ADVANCE_KEYS
    if unknown:
        raise ValueError(
            f"unknown advance keys: {', '.join(sorted(map(str, unknown)))} "
            "(expected minute and/or invocations)"
        )
    minute = body.get("minute")
    if minute is not None and not (_is_int(minute) and minute >= 0):
        raise ValueError(
            f"minute must be a non-negative integer, got {minute!r}"
        )
    raw = body.get("invocations")
    if raw is None:
        return minute, None
    if not isinstance(raw, dict):
        raise ValueError(
            "invocations must be an object of {fid: count}, got "
            f"{type(raw).__name__}"
        )
    invocations: dict[int, int] = {}
    for fid, count in raw.items():
        if not (isinstance(fid, str) and _FID.fullmatch(fid)):
            raise ValueError(f"invocation fid {fid!r} is not a decimal id")
        if not (_is_int(count) and count > 0):
            raise ValueError(
                f"invocation count for fid {fid} must be a positive "
                f"integer, got {count!r}"
            )
        invocations[int(fid)] = count
    return minute, invocations


def _record(minute: int, invocations: dict[int, int] | None) -> dict:
    """One advance record in its JSON form."""
    return {
        "minute": minute,
        "invocations": (
            {str(fid): n for fid, n in invocations.items()}
            if invocations is not None
            else None
        ),
    }


def _parse_record(record: Any) -> tuple[int, dict[int, int] | None]:
    minute, invocations = parse_advance(record)
    if minute is None:
        raise ValueError("an advance record needs its minute")
    return minute, invocations


@dataclass
class SessionInputs:
    """A session's persistent form: the JSON spec it was opened from,
    its fingerprint, and its successful advances in order.

    The serving layer appends ``(minute, invocations)`` to ``advances``
    after each advance that stepped the engine (under the session's
    lock); :meth:`to_json` is the inputs document.
    """

    spec: dict
    fingerprint: str
    advances: list[tuple[int, dict[int, int] | None]] = field(
        default_factory=list
    )

    @property
    def next_minute(self) -> int:
        """The first minute the recorded advances leave unexecuted."""
        return self.advances[-1][0] + 1 if self.advances else 0

    def to_json(self) -> str:
        """The inputs document, as canonical JSON."""
        return canonical_json(
            {
                "format": INPUTS_FORMAT,
                "v": JOURNAL_SCHEMA_VERSION,
                "spec": self.spec,
                "fingerprint": self.fingerprint,
                "records": [_record(m, inv) for m, inv in self.advances],
            }
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "SessionInputs":
        """Parse an inputs document; see :meth:`from_document`."""
        try:
            return cls.from_document(json.loads(text))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"undecodable inputs document: {exc}") from exc

    @classmethod
    def from_document(cls, obj: Any) -> "SessionInputs":
        """Validate a parsed inputs document. Raises ``ValueError`` on a
        pickled v1 snapshot envelope (named as such), another version or
        format, a key set other than ``INPUTS_FIELDS``, or a field or
        record of the wrong shape."""
        if not isinstance(obj, dict):
            raise ValueError(
                "an inputs document must be a JSON object, got "
                f"{type(obj).__name__}"
            )
        if obj.get("format") == WIRE_FORMAT:
            raise ValueError(
                "a v1 session snapshot (a pickled state envelope) is not "
                "readable by this build (expects an inputs document "
                f"v{JOURNAL_SCHEMA_VERSION}); it is never unpickled"
            )
        version = obj.get("v")
        if not _is_int(version) or version != JOURNAL_SCHEMA_VERSION:
            raise ValueError(
                f"inputs document v{version} is not readable by this "
                f"build (expects v{JOURNAL_SCHEMA_VERSION})"
            )
        if obj.get("format") != INPUTS_FORMAT:
            raise ValueError(
                f"not an inputs document: expected format={INPUTS_FORMAT!r}"
            )
        missing = [key for key in INPUTS_FIELDS if key not in obj]
        unexpected = sorted(set(obj) - set(INPUTS_FIELDS))
        if missing or unexpected:
            raise ValueError(
                f"inputs document has missing keys: {', '.join(missing)}; "
                f"unexpected keys: {', '.join(unexpected)}"
            )
        spec, fingerprint, records = (
            obj["spec"], obj["fingerprint"], obj["records"]
        )
        if not (
            isinstance(spec, dict)
            and isinstance(fingerprint, str)
            and isinstance(records, list)
        ):
            raise ValueError(
                "inputs document needs a spec object, a fingerprint "
                "string and a records list"
            )
        advances: list[tuple[int, dict[int, int] | None]] = []
        for i, record in enumerate(records):
            try:
                advances.append(_parse_record(record))
            except ValueError as exc:
                raise ValueError(f"inputs record {i}: {exc}") from exc
        return cls(spec, fingerprint, advances)


class SessionJournal:
    """Write-ahead journal plus inputs document for one session.

    Not thread-safe by itself: callers hold the session's lock around
    :meth:`record_advance`/:meth:`compact`, which also serializes the
    journal (the serving layer already serializes advances per session).
    ``inputs`` is the session's :class:`SessionInputs`, which the caller
    keeps current; compaction writes it.
    """

    def __init__(
        self,
        directory: str | Path,
        sid: str,
        inputs: SessionInputs,
        *,
        every_minutes: int = 240,
    ) -> None:
        self.directory = Path(directory)
        self.sid = sid
        self.inputs = inputs
        self.every_minutes = int(every_minutes)
        self.path = self.directory / f"{sid}.journal"
        self.snapshot_path = self.directory / f"{sid}.snapshot.json"
        self._header = SessionInputs(inputs.spec, inputs.fingerprint).to_json()
        self._last_bucket = inputs.next_minute // self.every_minutes
        self._appender: DurableAppender | None = None

    # -- writing -------------------------------------------------------------

    def begin(self) -> None:
        """Start the journal at the session's position: just the first
        line for a fresh session, a compaction for one that already has
        advances (restored or recovered), so they are on disk before the
        next advance is acknowledged."""
        if self.inputs.advances:
            self.compact()
        else:
            self._reset_log()

    def record_advance(
        self, minute: int, invocations: dict[int, int] | None
    ) -> None:
        """Append one advance record — called *before* the engine steps."""
        if self._appender is None:
            raise ValueError(f"journal for {self.sid} is closed")
        self._appender.append_line(canonical_json(_record(minute, invocations)))

    def maybe_compact(self) -> None:
        """Compact when the session enters a new cadence bucket — the
        same bucketing rule ``CheckpointConfig.every_minutes`` uses, so
        compaction minutes are a pure function of the advances."""
        if self.inputs.next_minute // self.every_minutes > self._last_bucket:
            self.compact()

    def compact(self) -> None:
        """Write the inputs document and reset the journal to its first
        line.

        Ordering is the crash-safety argument: the document lands
        atomically (fsynced) *before* the journal is reset, so at every
        instant either the old journal or the new document can rebuild
        the session — never neither.
        """
        atomic_write_text(self.snapshot_path, self.inputs.to_json() + "\n")
        self._last_bucket = self.inputs.next_minute // self.every_minutes
        self._reset_log()

    def close(self) -> None:
        """fsync and close (idempotent); the files stay for recovery."""
        if self._appender is not None:
            self._appender.close()
            self._appender = None

    def delete(self) -> None:
        """Remove the journal and document — an explicit close of the
        session means there is nothing left to recover."""
        self.close()
        self.path.unlink(missing_ok=True)
        self.snapshot_path.unlink(missing_ok=True)

    def _reset_log(self) -> None:
        if self._appender is not None:
            self._appender.close(sync=False)
        # durable=False: the reset is only reached *after* the document
        # is fsynced (compact()) or before any advance exists (begin()),
        # so a power cut that loses this rewrite leaves either the old
        # journal (whose stale records recovery skips) or a torn/empty
        # file (zero records — the document alone recovers). Skipping
        # the fsync halves compaction's fsync count.
        atomic_write_text(self.path, self._header + "\n", durable=False)
        self._appender = DurableAppender(self.path)


def read_records(path: Path) -> list[dict[str, Any]]:
    """Parse a journal file, discarding a torn final line.

    A torn line anywhere *except* the tail is corruption and raises
    :class:`JournalError`; the tail is the expected SIGKILL artifact
    (the append never returned, so its advance was never acknowledged).
    """
    records: list[dict[str, Any]] = []
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if i == len(lines) - 1:
                break  # torn tail: the unacknowledged in-flight append
            raise JournalError(
                f"{path}:{i + 1}: corrupt journal record: {exc}"
            ) from exc
        if not isinstance(obj, dict):
            raise JournalError(f"{path}:{i + 1}: record is not an object")
        records.append(obj)
    return records


class JournalSupervisor:
    """Owns one journal directory: creates per-session journals and
    rebuilds sessions from what a crashed or drained process left.

    Thread-safety: journal *creation* can race across tenants, so the
    supervisor only touches per-``sid`` paths derived under a caller-
    provided id — the serving layer allocates ids under its registry
    lock, making every ``sid`` unique; after that each journal is
    confined to its session's lock.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every_minutes: int = 240,
    ) -> None:
        self.directory = Path(directory)
        self.every_minutes = int(every_minutes)
        self.directory.mkdir(parents=True, exist_ok=True)

    def create(self, sid: str, inputs: SessionInputs) -> SessionJournal:
        """Start the journal of a newly registered session."""
        journal = SessionJournal(
            self.directory, sid, inputs, every_minutes=self.every_minutes
        )
        journal.begin()
        return journal

    def discover(self) -> list[str]:
        """Session ids with recoverable state in the directory."""
        sids = {p.name[: -len(".journal")] for p in
                self.directory.glob("*.journal")}
        sids.update(
            p.name[: -len(".snapshot.json")]
            for p in self.directory.glob("*.snapshot.json")
        )
        return sorted(sids)

    def recover(
        self, sid: str
    ) -> tuple["ControlSession", SessionJournal, int]:
        """Rebuild one session bit-identically from its inputs document
        and journal tail; returns the session, its (compacted) journal,
        ready for further advances, and the bytes read."""
        from repro.serve.app import rebuild_session

        journal_path = self.directory / f"{sid}.journal"
        snapshot_path = self.directory / f"{sid}.snapshot.json"
        n_bytes = 0
        records: list[dict[str, Any]] = []
        if journal_path.exists():
            n_bytes += journal_path.stat().st_size
            records = read_records(journal_path)
        try:
            # The journal's first line is checked even when a document
            # exists: a v1 journal is refused by version either way.
            first = SessionInputs.from_document(records[0]) if records else None
        except ValueError as exc:
            raise JournalError(f"{journal_path}: {exc}") from exc
        if snapshot_path.exists():
            data = snapshot_path.read_bytes()
            n_bytes += len(data)
            try:
                inputs = SessionInputs.from_json(data)
            except ValueError as exc:
                raise JournalError(f"{snapshot_path}: {exc}") from exc
        elif first is not None:
            inputs = first
        else:
            raise JournalError(
                f"session {sid!r}: no inputs document and no journal "
                "to rebuild from"
            )
        try:
            session = rebuild_session(inputs)
        except ValueError as exc:
            raise JournalError(f"session {sid!r}: {exc}") from exc

        for i, record in enumerate(records[1:], start=2):
            try:
                minute, invocations = _parse_record(record)
            except ValueError as exc:
                raise JournalError(
                    f"{journal_path}:{i}: corrupt advance record: {exc}"
                ) from exc
            if minute < session.next_minute:
                continue  # already inside the inputs document
            try:
                session.advance(minute, invocations)
            except ValueError:
                # The original call failed the same check and never
                # stepped the engine; skipping converges to the
                # pre-crash state.
                continue
            inputs.advances.append((minute, invocations))

        journal = SessionJournal(
            self.directory, sid, inputs, every_minutes=self.every_minutes
        )
        # Compacting truncates any torn tail and bounds the next
        # recovery's journal replay.
        journal.compact()
        return session, journal, n_bytes
