"""The shared stepper core (:class:`repro.runtime.driver.Stepper`).

Every engine builds, restores and finalizes through one base class, so
these tests pin the core's contracts on both engines: a restored
stepper carries exactly a fresh stepper's attributes (state left out of
the ``SNAPSHOT_FIELDS`` manifest would be missing after a restore), a
payload whose key set drifts from the manifest is refused by name, the
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
from repro.serve.session import ControlSession, open_session
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


def _session_snapshot(trace, assignment, engine):
    session = open_session(
        trace, policy="pulse", assignment=assignment, engine=engine,
        observe=True,
    )
    session.advance(20)
    return session.snapshot()


def _with_live(state, mutate):
    """``state`` re-captured after ``mutate`` edits its live dict."""
    payload = state.restore()
    live = payload["live"] if state.engine.startswith("session:") else payload
    mutate(live)
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
    def test_session_restore_vars_match_fresh(
        self, tiny_trace, tiny_assignment, engine
    ):
        snap = _session_snapshot(tiny_trace, tiny_assignment, engine)
        fresh = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine=engine, observe=True,
        ).stepper
        restored = ControlSession.restore(snap).stepper
        assert set(vars(restored)) == set(vars(fresh))


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
    def test_session_restore_refuses_missing_key(
        self, tiny_trace, tiny_assignment, engine
    ):
        snap = _session_snapshot(tiny_trace, tiny_assignment, engine)
        broken = _with_live(snap, lambda live: live.pop("policy"))
        with pytest.raises(ValueError, match="missing policy"):
            ControlSession.restore(broken)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_session_restore_refuses_extra_key(
        self, tiny_trace, tiny_assignment, engine
    ):
        snap = _session_snapshot(tiny_trace, tiny_assignment, engine)
        broken = _with_live(snap, lambda live: live.update(stowaway=1))
        with pytest.raises(ValueError, match="unexpected stowaway"):
            ControlSession.restore(broken)

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
