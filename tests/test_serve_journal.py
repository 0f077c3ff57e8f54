"""Crash durability of the serving layer (:mod:`repro.serve.journal`).

The golden contract mirrors the batch chaos drill: a serving process
killed at any instant loses nothing acknowledged. Sessions are advanced
partway, the manager is abandoned without any shutdown step (the
in-process stand-in for SIGKILL — ``DurableAppender`` flushes every
record to the kernel, so process death is survivable by construction),
and a fresh supervisor must rebuild every session **bit-identically**:
driven to the horizon, recovered sessions match ``Simulation.run()`` on
all three engines, fault plans included.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    WIRE_FIELDS,
    WIRE_FORMAT,
    SimulationState,
)
from repro.serve import JournalError, JournalSupervisor, SessionJournal
from repro.serve.app import ServeLimits, SessionManager
from repro.serve.journal import read_records
from tests.test_serve_session import _batch, _comparable

ENGINES = ("reference", "fleet")
FAULT_SPECS = (None, "seed=7,spawn=0.2,slow=0.1")


def _spec(engine, faults=None, seed=3):
    spec = {
        "synthetic": {"n_functions": 5, "horizon_minutes": 48, "seed": seed},
        "policy": "pulse",
        "engine": engine,
    }
    if faults is not None:
        spec["faults"] = faults
    return spec


def _journaled_manager(tmp_path, every_minutes=240, **limit_kwargs):
    return SessionManager(
        limits=ServeLimits(**limit_kwargs) if limit_kwargs else None,
        journal=JournalSupervisor(
            tmp_path / "journal", every_minutes=every_minutes
        ),
    )


class TestWireCodec:
    """The JSON envelope is a lossless re-encoding of the pickle
    snapshot format it replaced on the wire."""

    def _state(self, tiny_trace, tiny_assignment, minute=10):
        from repro.serve import open_session

        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        session.advance(minute)
        return session.snapshot()

    def test_round_trip_is_bit_identical(self, tiny_trace, tiny_assignment):
        state = self._state(tiny_trace, tiny_assignment)
        restored = SimulationState.from_wire_json(state.to_wire_json())
        assert restored == state
        assert pickle.dumps(restored) == pickle.dumps(state)
        # Canonical JSON: re-encoding the restored state is byte-stable.
        assert restored.to_wire_json() == state.to_wire_json()

    def test_envelope_matches_pinned_schema(self, tiny_trace, tiny_assignment):
        envelope = json.loads(
            self._state(tiny_trace, tiny_assignment).to_wire_json()
        )
        assert set(envelope) == set(WIRE_FIELDS)
        assert envelope["format"] == WIRE_FORMAT
        assert envelope["schema_version"] == CHECKPOINT_SCHEMA_VERSION

    def test_rejections(self, tiny_trace, tiny_assignment):
        good = json.loads(self._state(tiny_trace, tiny_assignment).to_wire_json())
        cases = {
            "not json": "}{",
            "wrong format": json.dumps(dict(good, format="other")),
            "wrong version": json.dumps(dict(good, schema_version=999)),
            "missing keys": json.dumps({"format": WIRE_FORMAT}),
            "bad base64": json.dumps(dict(good, payload_b64="!!!")),
            "sha mismatch": json.dumps(
                dict(good, payload_sha256="0" * 64)
            ),
        }
        for label, text in cases.items():
            with pytest.raises(ValueError):
                SimulationState.from_wire_json(text)


class TestJournalPrimitives:
    def test_begin_record_compact_cycle(self, tmp_path):
        manager = _journaled_manager(tmp_path)
        sid = manager.create(_spec("reference"))["id"]
        managed = manager._get(sid)
        journal = managed.journal
        assert journal is not None and journal.path.exists()

        for _ in range(5):
            manager.advance(sid, {})
        records = read_records(journal.path)
        assert records[0]["kind"] == "open"
        assert [r["minute"] for r in records[1:]] == [0, 1, 2, 3, 4]

        with managed.lock:
            journal.compact(managed.session)
        assert journal.snapshot_path.exists()
        # Compaction resets the log to just the open header.
        assert [r["kind"] for r in read_records(journal.path)] == ["open"]
        manager.close_all()

    def test_cadence_compaction_is_a_function_of_the_minute(self, tmp_path):
        manager = _journaled_manager(tmp_path, every_minutes=16)
        sid = manager.create(_spec("reference"))["id"]
        journal = manager._get(sid).journal
        manager.advance(sid, {"minute": 14})
        assert not journal.snapshot_path.exists()
        manager.advance(sid, {"minute": 16})  # crosses the 16-minute bucket
        assert journal.snapshot_path.exists()
        manager.close_all()

    def test_close_deletes_but_drain_keeps(self, tmp_path):
        manager = _journaled_manager(tmp_path)
        keep = manager.create(_spec("reference", seed=1))["id"]
        gone = manager.create(_spec("reference", seed=2))["id"]
        paths = {
            sid: (managed.journal.path, managed.journal.snapshot_path)
            for sid, managed in
            ((keep, manager._get(keep)), (gone, manager._get(gone)))
        }
        manager.advance(keep, {})
        manager.close(gone)
        assert not any(p.exists() for p in paths[gone])
        manager.drain()
        assert paths[keep][0].exists() and paths[keep][1].exists()

    def test_torn_tail_is_discarded(self, tmp_path):
        journal_dir = tmp_path / "journal"
        manager = _journaled_manager(tmp_path)
        sid = manager.create(_spec("reference"))["id"]
        for _ in range(4):
            manager.advance(sid, {})
        path = manager._get(sid).journal.path
        with open(path, "ab") as fh:
            fh.write(b'{"v": 1, "kind": "adva')  # the SIGKILL artifact
        records = read_records(path)
        assert [r["minute"] for r in records[1:]] == [0, 1, 2, 3]

        session, _journal = JournalSupervisor(journal_dir).recover(sid)
        assert session.next_minute == 4

    def test_corrupt_middle_raises(self, tmp_path):
        manager = _journaled_manager(tmp_path)
        sid = manager.create(_spec("reference"))["id"]
        manager.advance(sid, {})
        path = manager._get(sid).journal.path
        lines = path.read_bytes().splitlines()
        lines.insert(1, b"NOT JSON")
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(JournalError, match="corrupt"):
            read_records(path)

    def test_fingerprint_mismatch_refuses_replay(self, tmp_path):
        supervisor = JournalSupervisor(tmp_path / "journal")
        manager = SessionManager(journal=supervisor)
        sid = manager.create(_spec("reference"))["id"]
        manager.advance(sid, {})
        path = manager._get(sid).journal.path
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "0" * 64
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="fingerprint"):
            JournalSupervisor(tmp_path / "journal").recover(sid)

    def test_nothing_to_recover_from_raises(self, tmp_path):
        supervisor = JournalSupervisor(tmp_path / "journal")
        journal = SessionJournal(tmp_path / "journal", "s9")
        journal.begin(None, "f" * 64)  # snapshot-only header, no snapshot
        journal.close()
        with pytest.raises(JournalError, match="no snapshot"):
            supervisor.recover("s9")


class TestCrashRecoveryGolden:
    """SIGKILL-equivalent: abandon a journaled manager mid-run, recover
    into a fresh one, finish — bytes must match the batch path."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faults", FAULT_SPECS)
    def test_recovered_sessions_match_batch(
        self, tmp_path, tiny_trace, tiny_assignment, engine, faults
    ):
        # The HTTP spec path regenerates its own trace; to golden-test
        # against the *fixture* trace, drive the journal directly.
        from repro.serve import open_session

        supervisor = JournalSupervisor(
            tmp_path / "journal", every_minutes=16
        )
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine=engine, faults=faults,
        )
        journal = supervisor.create("s1", None, session)
        for minute in range(25):
            journal.record_advance(minute, None)
            session.advance(minute)
            journal.maybe_compact(session)
        # No close(), no sync(): the process "dies" here.

        recovered, _journal = JournalSupervisor(
            tmp_path / "journal", every_minutes=16
        ).recover("s1")
        assert recovered.next_minute == 25
        assert _comparable(recovered.result()) == _comparable(
            _batch(tiny_trace, tiny_assignment, engine, faults)
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_manager_recover_via_spec(self, tmp_path, engine):
        """The HTTP path: sessions created from JSON specs, advanced,
        crashed, recovered by SessionManager.recover() — and the
        recovered run equals an uninterrupted one."""
        manager = _journaled_manager(tmp_path, every_minutes=16)
        sids = [
            manager.create(_spec(engine, seed=seed))["id"]
            for seed in (1, 2)
        ]
        for sid in sids:
            manager.advance(sid, {"minute": 20})
        # Abandon `manager` (crash). Recover into a fresh one.
        fresh = _journaled_manager(tmp_path, every_minutes=16)
        recovered = fresh.recover()
        assert sorted(info["id"] for info in recovered) == sorted(sids)
        assert all(info["next_minute"] == 21 for info in recovered)

        control = SessionManager()
        for seed, sid in zip((1, 2), sids):
            cid = control.create(_spec(engine, seed=seed))["id"]
            fresh.advance(sid, {"minute": 47})
            control.advance(cid, {"minute": 47})
            a, b = fresh.result(sid), control.result(cid)
            a.pop("wall_clock_s", None)
            b.pop("wall_clock_s", None)
            assert a == b
        # New sessions never collide with recovered ids.
        new_sid = fresh.create(_spec(engine, seed=9))["id"]
        assert new_sid not in sids
        fresh.close_all()
        control.close_all()

    def test_recover_after_drain_round_trips(self, tmp_path):
        """A graceful drain leaves a directory --recover accepts: the
        deploy-restart path (SIGTERM, then recover) loses nothing."""
        manager = _journaled_manager(tmp_path)
        sid = manager.create(_spec("reference"))["id"]
        manager.advance(sid, {"minute": 30})
        manager.drain()

        fresh = _journaled_manager(tmp_path)
        infos = fresh.recover()
        assert [i["next_minute"] for i in infos] == [31]
        fresh.advance(sid, {"minute": 47})
        control = SessionManager()
        cid = control.create(_spec("reference"))["id"]
        control.advance(cid, {"minute": 47})
        a, b = fresh.result(sid), control.result(cid)
        a.pop("wall_clock_s", None)
        b.pop("wall_clock_s", None)
        assert a == b
        fresh.close_all()
        control.close_all()

    def test_restored_session_is_recoverable_immediately(self, tmp_path):
        """A session opened via snapshot-restore has no spec to rejournal
        from — the supervisor must write its snapshot at registration so
        a crash one advance later still recovers."""
        donor = SessionManager()
        did = donor.create(_spec("reference"))["id"]
        donor.advance(did, {"minute": 10})
        payload = donor.snapshot(did).encode()
        donor.close_all()

        manager = _journaled_manager(tmp_path)
        sid = manager.restore(payload)["id"]
        manager.advance(sid, {})  # minute 11, journaled
        # Crash; recover.
        fresh = _journaled_manager(tmp_path)
        infos = fresh.recover()
        assert [i["id"] for i in infos] == [sid]
        assert infos[0]["next_minute"] == 12
        fresh.close_all()
