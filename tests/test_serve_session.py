"""The control-plane session API (:mod:`repro.serve.session`).

The golden contract: a full-trace replay through ``advance()`` — or
``replay()`` — is **bit-identical** to ``Simulation.run()`` on every
engine, with and without a fault plan; and a session snapshotted at any
minute ``k`` and restored continues to the same bytes (the resume
property test). Sessions and the batch drivers share the stepper
classes, so these tests pin that the session layer feeds them minutes
faithfully.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.checkpoint import SimulationState
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.serve import AdvanceResult, ControlSession, TraceMeta, open_session
from repro.serve.session import open_session as session_open

ENGINES = ("reference", "fast", "fleet")
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


class TestSnapshotRestore:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faults", FAULT_SPECS)
    def test_restored_session_finishes_identically(
        self, tiny_trace, tiny_assignment, engine, faults
    ):
        batch = _batch(tiny_trace, tiny_assignment, engine, faults)
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine=engine, faults=faults,
        )
        session.advance(24)
        restored = ControlSession.restore(session.snapshot())
        assert restored.engine == engine
        assert restored.next_minute == 25
        assert _comparable(restored.result()) == _comparable(batch)

    def test_snapshot_round_trips_through_disk(
        self, tiny_trace, tiny_assignment, tmp_path
    ):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        session.advance(10)
        path = session.snapshot().save(tmp_path / "session.ckpt")
        restored = ControlSession.restore(path)
        assert _comparable(restored.result()) == _comparable(
            _batch(tiny_trace, tiny_assignment, "fast")
        )

    def test_snapshot_is_isolated_from_the_live_session(
        self, tiny_trace, tiny_assignment
    ):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment
        )
        session.advance(5)
        state = session.snapshot()
        session.replay()  # mutate the live session past the snapshot
        restored = ControlSession.restore(state)
        assert restored.next_minute == 6

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
            engine="fast",
            checkpoint=CheckpointConfig(
                every_minutes=20, on_snapshot=states.append
            ),
        )
        with pytest.raises(ValueError, match="session snapshot"):
            ControlSession.restore(states[0])

    def test_pre_change_fleet_snapshot_refused_by_version(
        self, tiny_trace, tiny_assignment, tmp_path, monkeypatch
    ):
        """A v2 fleet snapshot carried the partitioned ``FleetShards``
        state and a ``shards`` meta key. Every restore path refuses it
        with the schema-version message before unpickling the payload,
        which would otherwise die on the missing class."""
        import pickle

        import repro.runtime.fleet as fleet_module
        from repro.serve.app import ApiError, SessionManager

        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine="fleet",
        )
        session.advance(10)
        state = session.snapshot()
        payload = state.restore()

        class FleetShards:  # the v2 layout's fleet state class
            pass

        FleetShards.__module__ = fleet_module.__name__
        FleetShards.__qualname__ = "FleetShards"
        with monkeypatch.context() as m:
            m.setattr(fleet_module, "FleetShards", FleetShards, raising=False)
            payload["live"]["fleet"] = FleetShards()
            payload["meta"]["shards"] = 1
            v2_bytes = pickle.dumps(payload)
        with pytest.raises(AttributeError, match="FleetShards"):
            pickle.loads(v2_bytes)  # what an unguarded restore would hit

        v2 = SimulationState(
            engine=state.engine, next_minute=state.next_minute,
            cursor=state.cursor, payload=v2_bytes, schema_version=2,
        )
        version_msg = r"schema v2 is not readable by this build \(expects v3\)"
        with pytest.raises(ValueError, match=version_msg):
            ControlSession.restore(v2)
        path = v2.save(tmp_path / "v2.ckpt")
        with pytest.raises(ValueError, match=version_msg):
            ControlSession.restore(path)
        with pytest.raises(ValueError, match=version_msg):
            SimulationState.from_wire_json(v2.to_wire_json())
        with pytest.raises(ApiError, match=version_msg) as exc_info:
            SessionManager().restore(v2.to_wire_json().encode())
        assert exc_info.value.status == 400

    @given(
        k=st.integers(min_value=0, max_value=59),
        engine_idx=st.integers(min_value=0, max_value=2),
    )
    # The fixtures are read-only inputs (sessions never mutate the trace
    # or assignment), so sharing them across examples is safe.
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_resume_property(self, tiny_trace, tiny_assignment, k, engine_idx):
        """Snapshot at a random minute k, restore, replay: bit-identical
        RunResult to the uninterrupted batch run."""
        engine = ENGINES[engine_idx]
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine=engine,
        )
        if k > 0:
            session.advance(k - 1)
        restored = ControlSession.restore(session.snapshot())
        assert _comparable(restored.result()) == _comparable(
            _batch(tiny_trace, tiny_assignment, engine)
        )


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
