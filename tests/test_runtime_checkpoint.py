"""Checkpoint/resume: bit-identical round-trips on every engine.

The contract under test (see :mod:`repro.runtime.checkpoint`): resuming
an interrupted run from any snapshot produces exactly the metrics the
uninterrupted run produced — same summary, same memory series bytes,
same observability counters — on the reference and fleet engines, with
and without fault injection.
"""

from __future__ import annotations

import base64
import inspect
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_policy, run_sweep, simulate
from repro.experiments.manifest import RunManifest
from repro.experiments.runner import ExperimentConfig
from repro.serve.session import ControlSession, open_session
from repro.models.zoo import default_zoo
from repro.runtime import checkpoint as checkpoint_module
from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointConfig,
    SimulationState,
    _envelope_digest,
)
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import FunctionSpec, Trace

ZOO = default_zoo()
FAMILIES = list(ZOO)

ENGINES = ("reference", "fleet")
FAULT_SPECS = (None, "spawn=0.2,slow=0.1,seed=7")


def _assignment(trace):
    return {f: FAMILIES[f % len(FAMILIES)] for f in range(trace.n_functions)}


def _comparable(result):
    """Everything a resumed run must reproduce byte-for-byte."""
    d = result.summary()
    d.pop("wall_clock_s", None)
    for key, series in (
        ("memory_series", result.memory_series_mb),
        ("ideal_series", result.ideal_memory_series_mb),
    ):
        d[key] = None if series is None else series.tobytes()
    if result.obs is not None and result.obs.metrics_enabled:
        d["metrics"] = result.obs.metrics.as_flat_dict()
    return d


def _resealed(state, **edits):
    """``state``'s wire envelope with ``edits`` applied and a digest that
    matches them, so only the codec's header checks can refuse it."""
    envelope = json.loads(state.to_wire_json())
    envelope.update(edits)
    envelope["payload_sha256"] = _envelope_digest(
        envelope["schema_version"], envelope["engine"],
        envelope["next_minute"], envelope["cursor"],
        base64.b64decode(envelope["payload_b64"]),
    )
    return json.dumps(envelope)


#: Crafted envelope headers that carry a valid digest but are not a
#: snapshot this build wrote; each must be refused with ``ValueError``.
BAD_HEADERS = {
    "next-minute-list": {"next_minute": [3]},
    "next-minute-float": {"next_minute": 2.7},
    "next-minute-bool": {"next_minute": True},
    "next-minute-negative": {"next_minute": -1},
    "engine-not-str": {"engine": 7},
    "cursor-nested": {"cursor": [[1]]},
    "cursor-not-list": {"cursor": "1"},
    "cursor-bool": {"cursor": [True]},
    "version-float": {"schema_version": float(CHECKPOINT_SCHEMA_VERSION)},
    "extra-key": {"note": "x"},
}


def _trace_from_matrix(matrix):
    counts = np.asarray(matrix, dtype=np.int64)
    specs = tuple(FunctionSpec(i, f"f{i}") for i in range(counts.shape[0]))
    return Trace(counts=counts, functions=specs)


small_traces = st.integers(min_value=1, max_value=3).flatmap(
    lambda n_fn: st.lists(
        st.lists(st.integers(min_value=0, max_value=3),
                 min_size=40, max_size=40),
        min_size=n_fn,
        max_size=n_fn,
    )
)


class TestRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faults", FAULT_SPECS)
    def test_resume_matches_uninterrupted_run(
        self, tiny_trace, tiny_assignment, engine, faults
    ):
        states: list[SimulationState] = []
        cp = CheckpointConfig(every_minutes=13, on_snapshot=states.append)
        full = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine=engine, faults=faults, checkpoint=cp,
        )
        assert full.n_checkpoints == len(states) > 1
        for state in states:
            resumed = simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse",
                engine=engine, faults=faults,
                checkpoint=CheckpointConfig(
                    every_minutes=13, on_snapshot=lambda s: None
                ),
                resume_from=state,
            )
            assert _comparable(resumed) == _comparable(full)
            assert resumed.n_checkpoints == full.n_checkpoints

    @pytest.mark.parametrize("engine", ENGINES)
    def test_checkpointing_does_not_perturb_metrics(
        self, tiny_trace, tiny_assignment, engine
    ):
        plain = simulate(tiny_trace, assignment=tiny_assignment, policy="pulse", engine=engine)
        checked = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse", engine=engine,
            checkpoint=CheckpointConfig(
                every_minutes=7, on_snapshot=lambda s: None
            ),
        )
        assert checked.n_checkpoints > 0
        assert _comparable(plain) == _comparable(checked)

    def test_one_cadence_rule_across_engines(self):
        # Minutes 20..29 (bucket 2 of every=10) are all idle, and the
        # other buckets' first events sit off the bucket boundary: every
        # engine must capture before the same event groups.
        matrix = np.zeros((3, 60), dtype=np.int64)
        for fid, minutes in enumerate(((3, 14, 33), (5, 17, 41, 58), (12, 47))):
            matrix[fid, list(minutes)] = 1 + fid
        trace = _trace_from_matrix(matrix)
        assignment = _assignment(trace)
        seen = {}
        for engine in ENGINES:
            states: list[SimulationState] = []
            result = simulate(
                trace, assignment=assignment, policy="pulse", engine=engine,
                checkpoint=CheckpointConfig(
                    every_minutes=10, on_snapshot=states.append
                ),
            )
            assert result.n_checkpoints == len(states)
            seen[engine] = [(s.next_minute, s.cursor) for s in states]
        # Bucket 1 captures at its first event (minute 12, after minute
        # 5's group); bucket 2 is idle; buckets 3, 4, 5 capture before
        # minutes 33, 41 and 58.
        assert seen["reference"] == [(6, (1,)), (18, (3,)), (34, (4,)), (48, (5,))]
        assert seen["fleet"] == seen["reference"]

    def test_observed_resume_restores_counters(
        self, tiny_trace, tiny_assignment
    ):
        config = SimulationConfig(observe=True)
        states: list[SimulationState] = []
        cp = CheckpointConfig(every_minutes=20, on_snapshot=states.append)
        full = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            config=config,
            engine="reference", checkpoint=cp,
        )
        resumed = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            config=config,
            engine="reference",
            checkpoint=CheckpointConfig(
                every_minutes=20, on_snapshot=lambda s: None
            ),
            resume_from=states[-1],
        )
        assert _comparable(resumed) == _comparable(full)

    @given(matrix=small_traces, every=st.integers(min_value=3, max_value=17),
           engine_idx=st.integers(min_value=0, max_value=1))
    @settings(max_examples=15, deadline=None)
    def test_random_traces_round_trip(self, matrix, every, engine_idx):
        trace = _trace_from_matrix(matrix)
        assignment = _assignment(trace)
        engine = ENGINES[engine_idx]
        states: list[SimulationState] = []
        cp = CheckpointConfig(every_minutes=every,
                              on_snapshot=states.append)
        full = simulate(trace, assignment=assignment, policy="openwhisk",
                        engine=engine, checkpoint=cp)
        if not states:  # horizon shorter than the cadence: nothing to do
            return
        resumed = simulate(
            trace, assignment=assignment, policy="openwhisk", engine=engine,
            checkpoint=CheckpointConfig(
                every_minutes=every, on_snapshot=lambda s: None
            ),
            resume_from=states[len(states) // 2],
        )
        assert _comparable(resumed) == _comparable(full)


class TestStatePersistence:
    def test_save_load_round_trip(self, tiny_trace, tiny_assignment, tmp_path):
        path = tmp_path / "run.ckpt"
        full = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="reference",
            checkpoint=CheckpointConfig(path=path, every_minutes=25),
        )
        assert full.n_checkpoints >= 1
        state = SimulationState.load(path)
        assert state.engine == "reference"
        assert state.schema_version == CHECKPOINT_SCHEMA_VERSION
        resumed = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="reference",
            checkpoint=CheckpointConfig(path=tmp_path / "resumed.ckpt",
                                        every_minutes=25),
            resume_from=path,  # the facade loads paths itself
        )
        assert _comparable(resumed) == _comparable(full)

    def test_load_rejects_flipped_payload_byte(
        self, tiny_trace, tiny_assignment, tmp_path
    ):
        path = tmp_path / "run.ckpt"
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="reference",
            checkpoint=CheckpointConfig(path=path, every_minutes=25),
        )
        raw = bytearray(path.read_bytes())
        # One base64 digit in the middle of the payload, swapped for
        # another valid digit: still decodable, different bytes.
        i = raw.index(b'"payload_b64":"') + len(b'"payload_b64":"') + 40
        raw[i] = ord("A") if raw[i] != ord("A") else ord("B")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="sha256"):
            SimulationState.load(path)

    def test_load_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(Exception):
            SimulationState.load(path)

    def test_version_gate(self, tiny_trace, tiny_assignment):
        states: list[SimulationState] = []
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="reference",
            checkpoint=CheckpointConfig(every_minutes=30,
                                        on_snapshot=states.append),
        )
        stale = SimulationState(
            engine=states[0].engine,
            next_minute=states[0].next_minute,
            cursor=states[0].cursor,
            payload=states[0].payload,
            schema_version=CHECKPOINT_SCHEMA_VERSION + 1,
        )
        with pytest.raises(ValueError, match="schema"):
            stale.restore()


class TestGuards:
    def test_engine_mismatch_refused(self, tiny_trace, tiny_assignment):
        states: list[SimulationState] = []
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="reference",
            checkpoint=CheckpointConfig(every_minutes=30,
                                        on_snapshot=states.append),
        )
        with pytest.raises(ValueError, match="engine"):
            simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse",
                engine="fleet", resume_from=states[0],
            )

    def test_fleet_checkpoint_refused_on_reference(
        self, tiny_trace, tiny_assignment
    ):
        states: list[SimulationState] = []
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="fleet",
            checkpoint=CheckpointConfig(every_minutes=30,
                                        on_snapshot=states.append),
        )
        with pytest.raises(ValueError, match="'fleet'.*'reference'"):
            simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse",
                engine="reference", resume_from=states[0],
            )

    def test_session_snapshot_refused_by_run(self, tiny_trace, tiny_assignment):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine="reference",
        )
        session.advance(10)
        state = session.snapshot()
        sim = Simulation(tiny_trace, tiny_assignment, make_policy("pulse"))
        with pytest.raises(
            ValueError, match="'session:reference'.*ControlSession.restore"
        ):
            sim.run(engine="reference", resume_from=state)

    def test_config_requires_sink(self):
        with pytest.raises(ValueError):
            CheckpointConfig()

    def test_config_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointConfig(path=tmp_path / "x.ckpt", every_minutes=0)

    def test_run_rejects_non_config(self, tiny_trace, tiny_assignment):
        with pytest.raises(TypeError):
            simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse",
                engine="reference", checkpoint=42,
            )


class TestRetiredFastEngine:
    """Artifacts that name the deleted fast engine are refused with a
    ``ValueError`` naming the schema version or the valid engines."""

    def test_experiment_config_refuses_fast(self):
        with pytest.raises(ValueError, match="auto, reference, fleet"):
            ExperimentConfig(engine="fast")

    def test_v5_checkpoint_file_refused_by_version(
        self, tiny_trace, tiny_assignment, tmp_path
    ):
        states: list[SimulationState] = []
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="reference",
            checkpoint=CheckpointConfig(every_minutes=30,
                                        on_snapshot=states.append),
        )
        path = SimulationState(
            engine="fast",
            next_minute=states[0].next_minute,
            cursor=states[0].cursor,
            payload=states[0].payload,
            schema_version=5,
        ).save(tmp_path / "v5.ckpt")
        with pytest.raises(
            ValueError,
            match=rf"schema v5 .*expects v{CHECKPOINT_SCHEMA_VERSION}",
        ):
            simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse",
                resume_from=path,
            )

    def test_fast_checkpoint_refused_by_engine(
        self, tiny_trace, tiny_assignment
    ):
        states: list[SimulationState] = []
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="reference",
            checkpoint=CheckpointConfig(every_minutes=30,
                                        on_snapshot=states.append),
        )
        fast = SimulationState("fast", states[0].next_minute,
                               states[0].cursor, states[0].payload)
        with pytest.raises(ValueError, match="'fast'.*reference, fleet"):
            simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse",
                resume_from=fast,
            )

    def test_session_fast_snapshot_refused(self, tiny_trace, tiny_assignment):
        session = open_session(
            tiny_trace, policy="pulse", assignment=tiny_assignment,
            engine="reference",
        )
        session.advance(10)
        state = session.snapshot()
        fast = SimulationState("session:fast", state.next_minute,
                               state.cursor, state.payload)
        with pytest.raises(ValueError, match="'session:fast'.*reference, fleet"):
            ControlSession.restore(fast)

    def test_sweep_resume_refuses_fast_manifest(self, tiny_trace, tmp_path):
        config = ExperimentConfig(n_runs=1, horizon_minutes=60, seed=3)
        sweep_config = {
            "policies": ["pulse"],
            "n_runs": 1,
            "horizon_minutes": 60,
            "seed": 3,
            "engine": "fast",
            "sim": repr(config.sim),
            "resilient": False,
        }
        RunManifest.create(sweep_config, tiny_trace, ["pulse"], 1).save(
            tmp_path / "manifest.json"
        )
        with pytest.raises(ValueError, match="auto, reference, fleet"):
            run_sweep(
                tiny_trace, policies=["pulse"], config=config, durable=True,
                resume=tmp_path / "manifest.json",
            )


class TestSchemaNotes:
    def test_current_version_has_a_migration_note(self):
        source = inspect.getsource(checkpoint_module)
        assert f"v{CHECKPOINT_SCHEMA_VERSION}:" in source

    def test_v7_note_names_the_estimator_layout(self):
        assert CHECKPOINT_SCHEMA_VERSION == 7
        source = inspect.getsource(checkpoint_module)
        note = source[source.index("#: v7:"):source.index("CHECKPOINT_SCHEMA_VERSION =")]
        assert "estimator" in note and "v6 is refused" in note


class TestFloatListEstimatorBump:
    """v7 pickles the reference estimator's histories as Python lists;
    a v6 envelope (array-backed histories) is refused by version."""

    def _state(self, tiny_trace, tiny_assignment) -> SimulationState:
        states: list[SimulationState] = []
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="reference",
            checkpoint=CheckpointConfig(every_minutes=30,
                                        on_snapshot=states.append),
        )
        return states[0]

    def test_v6_checkpoint_file_refused_by_version(
        self, tiny_trace, tiny_assignment, tmp_path
    ):
        state = self._state(tiny_trace, tiny_assignment)
        path = SimulationState(
            engine="reference",
            next_minute=state.next_minute,
            cursor=state.cursor,
            payload=state.payload,
            schema_version=6,
        ).save(tmp_path / "v6.ckpt")
        with pytest.raises(ValueError, match=r"schema v6 .*expects v7"):
            simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse",
                resume_from=path,
            )

    def test_v6_wire_envelope_refused_by_version(
        self, tiny_trace, tiny_assignment
    ):
        state = self._state(tiny_trace, tiny_assignment)
        wire = SimulationState(
            engine="session:reference",
            next_minute=state.next_minute,
            cursor=(),
            payload=state.payload,
            schema_version=6,
        ).to_wire_json()
        with pytest.raises(ValueError, match=r"schema v6 .*expects v7"):
            SimulationState.from_wire_json(wire)


class TestEnvelopeValidation:
    """The codec refuses a well-sealed envelope whose header is not one
    it writes, instead of truncating or crashing on it."""

    def _state(self, tiny_trace, tiny_assignment):
        states: list[SimulationState] = []
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="reference",
            checkpoint=CheckpointConfig(every_minutes=30,
                                        on_snapshot=states.append),
        )
        return states[0]

    def test_resealed_untouched_envelope_loads(
        self, tiny_trace, tiny_assignment
    ):
        state = self._state(tiny_trace, tiny_assignment)
        assert SimulationState.from_wire_json(_resealed(state)) == state

    @pytest.mark.parametrize("edits", BAD_HEADERS.values(), ids=BAD_HEADERS)
    def test_bad_header_refused(self, tiny_trace, tiny_assignment, edits):
        state = self._state(tiny_trace, tiny_assignment)
        # Refused by a header check, not by the digest.
        with pytest.raises(
            ValueError,
            match=r"^snapshot (envelope has|schema|engine|next_minute|cursor)",
        ):
            SimulationState.from_wire_json(_resealed(state, **edits))


def _session_payload(tiny_trace, tiny_assignment):
    session = open_session(
        tiny_trace, policy="pulse", assignment=tiny_assignment,
        engine="reference",
    )
    session.advance(10)
    return pickle.loads(session.snapshot().payload)


#: Session snapshot payloads of the wrong shape, each built from a good
#: ``{"live": ..., "meta": ...}`` payload.
BAD_SESSION_PAYLOADS = {
    "not-a-dict": lambda good: [good["live"], good["meta"]],
    "no-meta": lambda good: {"live": good["live"]},
    "no-live": lambda good: {"meta": good["meta"]},
    "extra-key": lambda good: dict(good, spare=None),
    "live-not-a-dict": lambda good: dict(good, live=list(good["live"])),
    "meta-missing-trace": lambda good: dict(
        good, meta={k: v for k, v in good["meta"].items() if k != "trace"}
    ),
}


class TestSessionPayloadShape:
    @pytest.mark.parametrize(
        "mutate", BAD_SESSION_PAYLOADS.values(), ids=BAD_SESSION_PAYLOADS
    )
    def test_bad_payload_refused(self, tiny_trace, tiny_assignment, mutate):
        good = _session_payload(tiny_trace, tiny_assignment)
        state = SimulationState.snapshot(
            "session:reference", 10, (), mutate(good)
        )
        with pytest.raises(ValueError, match="session snapshot"):
            ControlSession.restore(state)
