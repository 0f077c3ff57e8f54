"""The shared stepper core (:class:`repro.runtime.driver.Stepper`).

Every engine builds, restores and finalizes through one base class, so
these tests pin the core's contracts on both engines: a restored
stepper carries exactly a fresh stepper's attributes (state left out of
the ``SNAPSHOT_FIELDS`` manifest would be missing after a restore), a
session rebuilt from its inputs document reproduces every snapshot
field, a payload or document whose key set drifts is refused by name, the
driver's block-wise event extraction is invisible in the results, and
the wire envelope's digest covers its header.
"""

from __future__ import annotations

import json

import pytest

from repro.api import make_policy, simulate
from repro.runtime import driver
from repro.runtime.checkpoint import (
    SNAPSHOT_FIELDS,
    CheckpointConfig,
    SimulationState,
)
from repro.runtime.driver import open_stepper
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.serve.app import SessionManager, rebuild_session
from repro.serve.journal import SessionInputs
from tests.test_runtime_checkpoint import ENGINES, _comparable


def _sim(trace, assignment, config=None):
    return Simulation(trace, assignment, make_policy("pulse"), config)


def _checkpoints(trace, assignment, engine, every=13, config=None):
    states: list[SimulationState] = []
    simulate(
        trace, assignment=assignment, policy="pulse", engine=engine,
        config=config,
        checkpoint=CheckpointConfig(every_minutes=every, on_snapshot=states.append),
    )
    assert states
    return states


def _session_document(engine):
    """A live session advanced through minute 20 and its inputs
    document. Unobserved: spans would carry wall-clock times."""
    manager = SessionManager()
    sid = manager.create(
        {"synthetic": {"n_functions": 4, "horizon_minutes": 40, "seed": 5},
         "engine": engine, "observe": False}
    )["id"]
    manager.advance(sid, {"minute": 20})
    return manager._get(sid).session, json.loads(manager.snapshot(sid))


def _with_live(state, mutate):
    """``state`` re-captured after ``mutate`` edits its live dict."""
    payload = state.restore()
    mutate(payload)
    return SimulationState.snapshot(
        state.engine, state.next_minute, state.cursor, payload
    )


class TestRestoreCarriesEveryField:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("observe", [False, True])
    def test_restored_vars_match_fresh(
        self, tiny_trace, tiny_assignment, engine, observe
    ):
        config = SimulationConfig(observe=observe)
        state = _checkpoints(tiny_trace, tiny_assignment, engine, config=config)[1]
        fresh = open_stepper(_sim(tiny_trace, tiny_assignment, config), engine)
        restored = open_stepper(
            _sim(tiny_trace, tiny_assignment, config), resume_from=state
        )
        assert type(restored) is type(fresh)
        assert set(vars(restored)) == set(vars(fresh))
        assert set(restored.live_state()) == set(SNAPSHOT_FIELDS[engine])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_session_restore_vars_match_fresh(self, engine):
        # A session rebuilt from its inputs replays into a stepper whose
        # every snapshot field equals the live session's, byte for byte.
        live, document = _session_document(engine)
        restored = rebuild_session(
            SessionInputs.from_json(json.dumps(document))
        ).stepper
        assert set(vars(restored)) == set(vars(live.stepper))
        assert restored.next_minute == live.stepper.next_minute == 21
        assert SimulationState.snapshot(
            engine, 21, (), restored.live_state()
        ) == SimulationState.snapshot(engine, 21, (), live.stepper.live_state())


class TestPayloadKeySetChecked:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_refuses_missing_key(self, tiny_trace, tiny_assignment, engine):
        state = _checkpoints(tiny_trace, tiny_assignment, engine)[0]
        broken = _with_live(state, lambda live: live.pop("n_cold"))
        with pytest.raises(ValueError, match="missing n_cold"):
            _sim(tiny_trace, tiny_assignment).run(resume_from=broken)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_refuses_extra_key(self, tiny_trace, tiny_assignment, engine):
        state = _checkpoints(tiny_trace, tiny_assignment, engine)[0]
        broken = _with_live(state, lambda live: live.update(stowaway=1))
        with pytest.raises(ValueError, match="unexpected stowaway"):
            _sim(tiny_trace, tiny_assignment).run(resume_from=broken)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_session_restore_refuses_missing_key(self, engine):
        _, document = _session_document(engine)
        del document["fingerprint"]
        with pytest.raises(ValueError, match="missing keys: fingerprint"):
            SessionInputs.from_json(json.dumps(document))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_session_restore_refuses_extra_key(self, engine):
        _, document = _session_document(engine)
        document["stowaway"] = 1
        with pytest.raises(ValueError, match="unexpected keys: stowaway"):
            SessionInputs.from_json(json.dumps(document))

    def test_untouched_payload_still_resumes(self, tiny_trace, tiny_assignment):
        state = _checkpoints(tiny_trace, tiny_assignment, "fleet")[0]
        same = _with_live(state, lambda live: None)
        resumed = _sim(tiny_trace, tiny_assignment).run(resume_from=same)
        full = _sim(tiny_trace, tiny_assignment).run(engine="fleet")
        assert _comparable(resumed) == _comparable(full)


class TestEventBlocks:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_is_invisible(
        self, tiny_trace, tiny_assignment, engine, block, monkeypatch
    ):
        def run():
            states: list[SimulationState] = []
            result = simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse",
                engine=engine,
                checkpoint=CheckpointConfig(
                    every_minutes=11, on_snapshot=states.append
                ),
            )
            return _comparable(result), [(s.next_minute, s.cursor) for s in states]

        default = run()
        monkeypatch.setattr(driver, "_EVENT_BLOCK_MINUTES", block)
        assert run() == default


class TestEnvelopeHeaderDigest:
    @pytest.mark.parametrize(
        ("key", "value"),
        [("engine", "reference"), ("next_minute", 41), ("cursor", [9])],
    )
    def test_load_rejects_edited_header(
        self, tiny_trace, tiny_assignment, tmp_path, key, value
    ):
        path = tmp_path / "run.ckpt"
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="fleet",
            checkpoint=CheckpointConfig(path=path, every_minutes=25),
        )
        SimulationState.load(path)  # intact: loads
        envelope = json.loads(path.read_text())
        assert envelope[key] != value
        envelope[key] = value
        path.write_text(json.dumps(envelope))
        with pytest.raises(ValueError, match="sha256"):
            SimulationState.load(path)
