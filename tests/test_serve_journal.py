"""Crash durability of the serving layer (:mod:`repro.serve.journal`).

The golden contract mirrors the batch chaos drill: a serving process
killed at any instant loses nothing acknowledged. Sessions are advanced
partway, the manager is abandoned without any shutdown step (the
in-process stand-in for SIGKILL — ``DurableAppender`` flushes every
record to the kernel, so process death is survivable by construction),
and a fresh supervisor must rebuild every session **bit-identically**:
driven to the horizon, recovered sessions match ``Simulation.run()`` on
both engines, fault plans included. A session persists as its inputs
document (spec, fingerprint, advances), so no pickle is ever loaded.
"""

from __future__ import annotations

import ast
import json
import pickle
from pathlib import Path

import pytest

import repro.serve
from repro.runtime.checkpoint import SimulationState
from repro.serve import JournalError, JournalSupervisor, SessionInputs
from repro.serve.app import ServeLimits, SessionManager, open_session_from_spec
from repro.serve.journal import (
    INPUTS_FIELDS,
    INPUTS_FORMAT,
    JOURNAL_SCHEMA_VERSION,
    read_records,
)
from tests.test_serve_app import request, running_server
from tests.test_serve_session import _comparable, _spec_batch

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
    """The inputs document is a lossless, canonical JSON encoding of a
    session's persistent form."""

    def _document(self, minute=10):
        manager = SessionManager()
        sid = manager.create(_spec("reference"))["id"]
        manager.advance(sid, {"minute": 3, "invocations": {"0": 2, "4": 1}})
        manager.advance(sid, {"minute": minute})
        return manager.snapshot(sid)

    def test_round_trip_is_bit_identical(self):
        document = self._document()
        inputs = SessionInputs.from_json(document)
        assert inputs.advances == [(3, {0: 2, 4: 1}), (10, None)]
        assert inputs.next_minute == 11
        # Canonical JSON: re-encoding the parsed document is byte-stable.
        assert inputs.to_json() == document
        assert SessionInputs.from_json(document.encode()) == inputs

    def test_envelope_matches_pinned_schema(self):
        document = json.loads(self._document())
        assert set(document) == set(INPUTS_FIELDS)
        assert document["format"] == INPUTS_FORMAT
        assert document["v"] == JOURNAL_SCHEMA_VERSION == 2
        assert document["spec"] == _spec("reference")
        assert document["records"][0] == {
            "minute": 3, "invocations": {"0": 2, "4": 1}
        }

    def test_rejections(self):
        good = json.loads(self._document())
        record = good["records"][0]
        cases = {
            "not json": "}{",
            "not an object": "[]",
            "wrong format": json.dumps(dict(good, format="other")),
            "wrong version": json.dumps(dict(good, v=1)),
            "bool version": json.dumps(dict(good, v=True)),
            "missing keys": json.dumps(
                {"format": INPUTS_FORMAT, "v": JOURNAL_SCHEMA_VERSION}
            ),
            "spec not an object": json.dumps(dict(good, spec=[])),
            "fingerprint not a string": json.dumps(dict(good, fingerprint=7)),
            "records not a list": json.dumps(dict(good, records={})),
            "record without minute": json.dumps(
                dict(good, records=[{"invocations": None}])
            ),
            "record bool count": json.dumps(
                dict(good, records=[dict(record, invocations={"0": True})])
            ),
            "record extra key": json.dumps(
                dict(good, records=[dict(record, kind="advance")])
            ),
        }
        for label, text in cases.items():
            with pytest.raises(ValueError):
                SessionInputs.from_json(text)


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
        # The first line is the session's inputs document, no records.
        assert SessionInputs.from_document(records[0]).advances == []
        assert [r["minute"] for r in records[1:]] == [0, 1, 2, 3, 4]

        with managed.lock:
            journal.compact()
        assert journal.snapshot_path.exists()
        # The document holds the five advances; compaction resets the
        # log to just its first line.
        document = SessionInputs.from_json(journal.snapshot_path.read_bytes())
        assert [m for m, _ in document.advances] == [0, 1, 2, 3, 4]
        assert read_records(journal.path) == records[:1]
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
            fh.write(b'{"minute": 4, "invoc')  # the SIGKILL artifact
        records = read_records(path)
        assert [r["minute"] for r in records[1:]] == [0, 1, 2, 3]

        session, _journal, _ = JournalSupervisor(journal_dir).recover(sid)
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
        # A journal torn before its header landed, and no document.
        (tmp_path / "journal" / "s9.journal").write_bytes(b'{"v": 2, "ki')
        with pytest.raises(JournalError, match="no inputs document"):
            supervisor.recover("s9")

    def test_v1_directory_refused_by_version(self, tmp_path, monkeypatch):
        """A v1 journal header, or a v1 pickled ``.snapshot.json``, is
        refused with the version message and never unpickled."""
        directory = tmp_path / "journal"
        directory.mkdir()
        monkeypatch.setattr(pickle, "loads", _no_pickle)
        header = {"v": 1, "kind": "open", "sid": "s1", "spec": None,
                  "fingerprint": "f" * 64}
        (directory / "s1.journal").write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match="v1 is not readable .*expects v2"):
            JournalSupervisor(directory).recover("s1")

        (directory / "s2.snapshot.json").write_text(
            SimulationState.snapshot(
                "session:reference", 4, (), {"live": {}, "meta": {}}
            ).to_wire_json()
        )
        with pytest.raises(JournalError, match="v1 session snapshot"):
            JournalSupervisor(directory).recover("s2")


class TestCrashRecoveryGolden:
    """SIGKILL-equivalent: abandon a journaled manager mid-run, recover
    into a fresh one, finish — bytes must match the batch path."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faults", FAULT_SPECS)
    def test_recovered_sessions_match_batch(self, tmp_path, engine, faults):
        # Drive the journal directly, the way the manager does: record,
        # step, then note the advance in the session's inputs.
        spec = _spec(engine, faults)
        supervisor = JournalSupervisor(
            tmp_path / "journal", every_minutes=16
        )
        session = open_session_from_spec(spec)
        inputs = SessionInputs(spec, session.fingerprint())
        journal = supervisor.create("s1", inputs)
        for minute in range(25):
            journal.record_advance(minute, None)
            session.advance(minute)
            inputs.advances.append((minute, None))
            journal.maybe_compact()
        # No close(), no sync(): the process "dies" here.

        recovered, _journal, n_bytes = JournalSupervisor(
            tmp_path / "journal", every_minutes=16
        ).recover("s1")
        assert recovered.next_minute == 25
        assert n_bytes > 0
        assert _comparable(recovered.result()) == _comparable(
            _spec_batch(spec)
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
        """A session rebuilt from an inputs document already has
        advances, so registration compacts at once: a crash one advance
        later still recovers every advance."""
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
        assert infos[0]["bytes_read"] > 0 and infos[0]["recovery_s"] >= 0
        fresh.close_all()


def _no_pickle(*args, **kwargs):
    raise AssertionError("pickle must not load serve-layer input")


class TestNoPickleOnTheServingPath:
    """Restore and recovery read JSON only: with every pickle entry
    point patched to raise, they still rebuild bit-identically."""

    @pytest.fixture()
    def no_pickle(self, monkeypatch):
        monkeypatch.setattr(pickle, "loads", _no_pickle)
        monkeypatch.setattr(pickle, "load", _no_pickle)
        monkeypatch.setattr(pickle, "Unpickler", _no_pickle)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_http_restore_recover_and_recover_after_drain(
        self, tmp_path, engine, no_pickle
    ):
        spec = _spec(engine, FAULT_SPECS[1])
        batch = _comparable(_spec_batch(spec))

        # HTTP restore.
        with running_server() as (base, _server):
            _, info = request(f"{base}/v1/sessions", "POST", spec)
            request(f"{base}/v1/sessions/{info['id']}/advance", "POST",
                    {"minute": 19})
            _, document = request(
                f"{base}/v1/sessions/{info['id']}/snapshot", raw=True
            )
            _, restored = request(
                f"{base}/v1/sessions/restore", "POST", document
            )
            assert restored["next_minute"] == 20
            rid = restored["id"]
            request(f"{base}/v1/sessions/{rid}/advance", "POST",
                    {"minute": 47})
            _, summary = request(f"{base}/v1/sessions/{rid}/result")
        summary.pop("wall_clock_s", None)
        assert summary == json.loads(json.dumps(batch))

        # --recover after a crash, then after a drain.
        manager = _journaled_manager(tmp_path, every_minutes=16)
        sid = manager.create(spec)["id"]
        manager.advance(sid, {"minute": 20})
        crashed = _journaled_manager(tmp_path, every_minutes=16)
        assert [i["next_minute"] for i in crashed.recover()] == [21]
        crashed.advance(sid, {"minute": 30})
        crashed.drain()
        drained = _journaled_manager(tmp_path, every_minutes=16)
        assert [i["next_minute"] for i in drained.recover()] == [31]
        drained.advance(sid, {"minute": 47})
        result = drained._get(sid).session.result()
        assert _comparable(result) == batch
        drained.close_all()


class TestServePackageHasNoPickle:
    def test_no_pickle_import_or_simulation_state_reference(self):
        root = Path(repro.serve.__file__).parent
        for path in sorted(root.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        alias.name for alias in node.names
                    ]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] not in {"pickle", "cPickle"}, (
                        f"{path.name}:{node.lineno} imports pickle"
                    )
                    assert name != "SimulationState", (
                        f"{path.name}:{node.lineno} references SimulationState"
                    )
