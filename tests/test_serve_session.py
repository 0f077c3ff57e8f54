"""The control-plane session API (:mod:`repro.serve.session`).

The golden contract: a full-trace replay through ``advance()`` — or
``replay()`` — is **bit-identical** to ``Simulation.run()`` on every
engine, with and without a fault plan; and a session rebuilt from its
inputs document at any minute ``k`` continues to the same bytes (the
resume property test). Sessions and the batch drivers share the stepper
classes, so these tests pin that the session layer feeds them minutes
faithfully.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.checkpoint import SimulationState
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.serve import AdvanceResult, SessionInputs, TraceMeta, open_session
from repro.serve.session import open_session as session_open

ENGINES = ("reference", "fleet")
FAULT_SPECS = (None, "seed=7,spawn=0.2,slow=0.1")


def _comparable(result) -> dict:
    d = result.summary()
    d.pop("wall_clock_s", None)
    return d


def _batch(trace, assignment, engine, faults=None):
    from repro.api import policy_spec
    from repro.faults.plan import FaultPlan

    spec = policy_spec("pulse")
    cfg = SimulationConfig(keep_alive_window=spec.keep_alive_window)
    if faults is not None:
        from dataclasses import replace

        cfg = replace(cfg, faults=FaultPlan.from_spec(faults))
    return Simulation(trace, assignment, spec.factory(), cfg).run(
        engine=engine
    )


class TestGoldenReplay:
    """advance()-stepped replays match Simulation.run() byte for byte."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faults", FAULT_SPECS)
    def test_replay_matches_batch(
        self, tiny_trace, tiny_assignment, engine, faults
    ):
        batch = _batch(tiny_trace, tiny_assignment, engine, faults)
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine=engine, faults=faults,
        )
        assert _comparable(session.result()) == _comparable(batch)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_minute_by_minute_advance_matches_batch(
        self, tiny_trace, tiny_assignment, engine
    ):
        batch = _batch(tiny_trace, tiny_assignment, engine)
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine=engine,
        )
        n_inv = 0
        while not session.done:
            step = session.advance()
            assert isinstance(step, AdvanceResult)
            n_inv += step.n_invocations
        stepped = session.result()
        assert _comparable(stepped) == _comparable(batch)
        assert n_inv == batch.n_invocations
        assert np.array_equal(
            stepped.memory_series_mb, batch.memory_series_mb
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_advance_reports_per_minute_deltas(
        self, tiny_trace, tiny_assignment, engine
    ):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine=engine,
        )
        totals = {"n_invocations": 0, "n_cold": 0, "n_forced_downgrades": 0}
        while not session.done:
            step = session.advance()
            for key in totals:
                value = getattr(step, key)
                assert value >= 0
                totals[key] += value
        final = session.result()
        assert totals["n_invocations"] == final.n_invocations
        assert totals["n_cold"] == final.n_cold
        assert totals["n_forced_downgrades"] == final.n_forced_downgrades

    def test_simulate_facade_routes_through_sessions(
        self, tiny_trace, tiny_assignment
    ):
        # One stepping code path: the facade's plain-run branch is a
        # session replay (checkpointed runs keep the engine drivers).
        from repro.api import simulate

        result = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse"
        )
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        assert _comparable(result) == _comparable(session.result())


class TestAdvanceSemantics:
    def test_default_minute_is_next(self, tiny_trace, tiny_assignment):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        assert session.advance().minute == 0
        assert session.advance().minute == 1
        assert session.next_minute == 2

    def test_gap_minutes_fill_from_trace(self, tiny_trace, tiny_assignment):
        jumped = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        stepped = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        jumped.advance(20)
        for _ in range(21):
            stepped.advance()
        assert _comparable(jumped.result()) == _comparable(stepped.result())

    def test_rewind_rejected(self, tiny_trace, tiny_assignment):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        session.advance(10)
        with pytest.raises(ValueError, match="already executed"):
            session.advance(5)

    def test_past_horizon_rejected(self, tiny_trace, tiny_assignment):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        with pytest.raises(ValueError, match="horizon"):
            session.advance(tiny_trace.horizon)

    def test_invocation_override_validated(self, tiny_trace, tiny_assignment):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        with pytest.raises(ValueError, match="out of range"):
            session.advance(0, {99: 1})
        with pytest.raises(ValueError, match="positive"):
            session.advance(0, {0: 0})

    def test_unknown_engine_rejected(self, tiny_trace, tiny_assignment):
        with pytest.raises(ValueError, match="unknown engine"):
            open_session(
                tiny_trace, policy="pulse", assignment=tiny_assignment,
                engine="turbo",
            )


class TestDecisions:
    def test_decisions_carry_engine_records(self, tiny_trace, tiny_assignment):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            observe=True,
        )
        step = session.advance(5)  # fid 0's first invocation minute
        kinds = {record["kind"] for record in step.decisions}
        assert "cold" in kinds
        # advance() deltas concatenate to the full record stream.
        session.replay()
        all_records = session.decisions()
        assert [r for r in all_records if r.get("fid") == 2] == \
            session.decisions(2)
        assert all(
            r["kind"] == "plan" for r in session.decisions(kind="plan")
        )

    def test_advance_result_is_json_ready(self, tiny_trace, tiny_assignment):
        import json

        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            observe=True,
        )
        payload = session.advance(5).as_dict()
        assert json.loads(json.dumps(payload)) == payload


def _spec(engine, faults=None, seed=3):
    spec = {
        "synthetic": {"n_functions": 5, "horizon_minutes": 60, "seed": seed},
        "policy": "pulse",
        "engine": engine,
    }
    if faults is not None:
        spec["faults"] = faults
    return spec


def _spec_batch(spec):
    """``Simulation.run()`` over exactly the workload ``spec`` opens."""
    from repro.api import make_policy
    from repro.serve.app import open_session_from_spec

    sim = open_session_from_spec(spec).sim
    return Simulation(
        sim.trace, sim.assignment, make_policy(spec["policy"]), sim.config
    ).run(engine=spec["engine"])


def _document_at(spec, k):
    """The inputs document of a session advanced through minute
    ``k - 1``: even minutes replay the trace column, odd ones pass the
    same column as explicit invocations, so the document carries both
    record shapes."""
    from repro.serve.app import SessionManager

    manager = SessionManager()
    sid = manager.create(spec)["id"]
    counts = manager._get(sid).session.trace.counts
    for t in range(k):
        column = {
            str(fid): int(counts[fid, t]) for fid in np.flatnonzero(counts[:, t])
        }
        body = {"invocations": column} if t % 2 and column else {}
        manager.advance(sid, body)
    return manager.snapshot(sid)


def _rebuilt(document):
    from repro.serve.app import rebuild_session

    return rebuild_session(SessionInputs.from_json(document))


class TestSnapshotRestore:
    """A session persists as its inputs document (spec, fingerprint,
    advances) and rebuilds bit-identically by replaying it."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faults", FAULT_SPECS)
    def test_restored_session_finishes_identically(self, engine, faults):
        spec = _spec(engine, faults)
        restored = _rebuilt(_document_at(spec, 25))
        assert restored.engine == engine
        assert restored.next_minute == 25
        assert _comparable(restored.result()) == _comparable(
            _spec_batch(spec)
        )

    def test_snapshot_round_trips_through_disk(self, tmp_path):
        spec = _spec("reference")
        path = tmp_path / "session.json"
        path.write_text(_document_at(spec, 11))
        restored = _rebuilt(path.read_bytes())
        assert restored.next_minute == 11
        assert _comparable(restored.result()) == _comparable(
            _spec_batch(spec)
        )

    def test_snapshot_is_isolated_from_the_live_session(self):
        from repro.serve.app import SessionManager

        manager = SessionManager()
        sid = manager.create(_spec("reference"))["id"]
        manager.advance(sid, {"minute": 5})
        document = manager.snapshot(sid)
        manager.advance(sid, {"minute": 40})  # move the live session on
        assert manager.snapshot(sid) != document
        assert _rebuilt(document).next_minute == 6

    def test_engine_checkpoint_rejected(self, tiny_trace, tiny_assignment):
        states: list[SimulationState] = []
        from repro.runtime.checkpoint import CheckpointConfig

        Simulation(
            tiny_trace, tiny_assignment,
            __import__("repro.api", fromlist=["make_policy"]).make_policy(
                "pulse"
            ),
            SimulationConfig(),
        ).run(
            engine="reference",
            checkpoint=CheckpointConfig(
                every_minutes=20, on_snapshot=states.append
            ),
        )
        with pytest.raises(ValueError, match="v1 session snapshot"):
            SessionInputs.from_json(states[0].to_wire_json())

    def test_pre_change_fleet_snapshot_refused_by_version(
        self, tmp_path, monkeypatch
    ):
        """A pickled fleet session snapshot — what ``GET .../snapshot``
        returned and compaction wrote before sessions persisted as their
        inputs — is refused by every restore path with the version
        message, and nothing is unpickled on the way."""
        import pickle

        from repro.serve import JournalError, JournalSupervisor
        from repro.serve.app import ApiError, SessionManager

        legacy = SimulationState.snapshot(
            "session:fleet", 10, (), {"live": {}, "meta": {}}
        ).to_wire_json()

        def refuse(*args, **kwargs):
            raise AssertionError("pickle must not run on restore input")

        monkeypatch.setattr(pickle, "loads", refuse)
        version_msg = r"v1 session snapshot .*expects an inputs document v2"
        with pytest.raises(ValueError, match=version_msg):
            SessionInputs.from_json(legacy)
        with pytest.raises(ApiError, match=version_msg) as exc_info:
            SessionManager().restore(legacy.encode())
        assert exc_info.value.status == 400
        (tmp_path / "s1.snapshot.json").write_text(legacy + "\n")
        with pytest.raises(JournalError, match=version_msg):
            JournalSupervisor(tmp_path).recover("s1")

    @given(
        k=st.integers(min_value=0, max_value=60),
        engine_idx=st.integers(min_value=0, max_value=1),
        faults_idx=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=12, deadline=None)
    def test_resume_property(self, k, engine_idx, faults_idx):
        """Rebuild from the inputs document at a random split point k,
        finish: bit-identical to the uninterrupted session and to
        ``Simulation.run()``."""
        from repro.serve.app import open_session_from_spec

        spec = _spec(ENGINES[engine_idx], FAULT_SPECS[faults_idx])
        restored = _rebuilt(_document_at(spec, k))
        assert restored.next_minute == k
        finished = _comparable(restored.result())
        assert finished == _comparable(open_session_from_spec(spec).result())
        assert finished == _comparable(_spec_batch(spec))


class TestOnlineMode:
    def test_online_session_takes_live_invocations(self):
        meta = TraceMeta(n_functions=4, horizon_minutes=30)
        session = open_session(meta, policy="pulse", observe=True)
        assert session.online
        step = session.advance(0, {1: 3, 2: 1})
        assert step.n_invocations == 4
        assert step.n_cold == 2
        # pair form, duplicates summed
        step = session.advance(1, [(1, 1), (1, 2)])
        assert step.n_invocations == 3

    def test_online_matches_equivalent_recorded_trace(self, zoo):
        """Feeding invocations online is the same run as replaying a
        trace holding those counts."""
        import numpy as np

        from repro.traces.schema import FunctionSpec, Trace

        counts = np.zeros((3, 40), dtype=np.int64)
        counts[0, [2, 7, 12]] = 2
        counts[1, 5] = 1
        trace = Trace(
            counts=counts,
            functions=tuple(
                FunctionSpec(i, f"fn-{i}", "online") for i in range(3)
            ),
        )
        fams = list(zoo)
        assignment = {i: fams[i % len(fams)] for i in range(3)}
        replayed = open_session(
            trace, policy="pulse", assignment=assignment
        ).result()
        online = open_session(
            TraceMeta(n_functions=3, horizon_minutes=40),
            policy="pulse", assignment=assignment,
        )
        for t in range(40):
            online.advance(t, {
                fid: int(counts[fid, t])
                for fid in range(3) if counts[fid, t]
            })
        assert _comparable(online.result()) == _comparable(replayed)

    def test_online_rejects_oracle_and_trace_faults(self):
        meta = TraceMeta(n_functions=3, horizon_minutes=30)
        with pytest.raises(ValueError, match="oracle"):
            open_session(meta, policy="ideal")
        with pytest.raises(ValueError, match="perturb"):
            open_session(meta, policy="pulse", faults="seed=3,drop=0.1")

    def test_trace_meta_validates(self):
        with pytest.raises(ValueError):
            TraceMeta(n_functions=0, horizon_minutes=10)
        with pytest.raises(ValueError):
            TraceMeta(n_functions=3, horizon_minutes=-1)


class TestFacadeShape:
    def test_open_session_is_keyword_only(self, tiny_trace, tiny_assignment):
        with pytest.raises(TypeError):
            session_open(tiny_trace, "pulse")  # noqa — the point

    def test_simulate_is_keyword_only(self, tiny_trace, tiny_assignment):
        from repro.api import simulate

        with pytest.raises(TypeError):
            simulate(tiny_trace, tiny_assignment, "pulse")
