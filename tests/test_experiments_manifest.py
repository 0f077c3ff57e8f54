"""Sweep manifests: durable state, content-hash guards, persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
    trace_hash,
)
from repro.traces.schema import FunctionSpec, Trace

SWEEP_CONFIG = {"policies": ["pulse"], "n_runs": 2, "seed": 7}


def _trace(counts, names=None):
    counts = np.asarray(counts, dtype=np.int64)
    names = names or [f"f{i}" for i in range(counts.shape[0])]
    specs = tuple(
        FunctionSpec(i, n) for i, n in enumerate(names)
    )
    return Trace(counts=counts, functions=specs)


class TestHashes:
    def test_trace_hash_sees_counts_and_names(self):
        base = _trace([[1, 0, 2]])
        assert trace_hash(base) == trace_hash(_trace([[1, 0, 2]]))
        assert trace_hash(base) != trace_hash(_trace([[1, 0, 3]]))
        assert trace_hash(base) != trace_hash(_trace([[1, 0, 2]], ["other"]))

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestManifestLifecycle:
    def test_create_enumerates_every_run(self):
        m = RunManifest.create(SWEEP_CONFIG, _trace([[1, 2]]),
                               ["pulse", "openwhisk"], 2)
        assert sorted(m.runs) == [
            "openwhisk/000", "openwhisk/001", "pulse/000", "pulse/001",
        ]
        assert all(r.status == "pending" for r in m.runs.values())
        assert m.n_done == 0 and m.n_failed == 0
        assert len(m.incomplete()) == 4

    def test_save_load_round_trip(self, tmp_path):
        trace = _trace([[1, 2]])
        m = RunManifest.create(SWEEP_CONFIG, trace, ["pulse"], 2)
        m.runs["pulse/000"].status = "done"
        m.runs["pulse/000"].artifact = "runs/pulse-000.json"
        m.n_retries = 3
        path = m.save(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.as_dict() == m.as_dict()
        assert loaded.path == path
        assert loaded.n_done == 1
        assert [r.run_id for r in loaded.incomplete()] == ["pulse/001"]

    def test_save_requires_a_path_once(self, tmp_path):
        m = RunManifest.create(SWEEP_CONFIG, _trace([[1]]), ["pulse"], 1)
        with pytest.raises(ValueError, match="path"):
            m.save()
        m.save(tmp_path / "manifest.json")
        m.runs["pulse/000"].status = "done"
        m.save()  # remembered
        assert RunManifest.load(tmp_path / "manifest.json").n_done == 1

    def test_schema_version_gate(self, tmp_path):
        m = RunManifest.create(SWEEP_CONFIG, _trace([[1]]), ["pulse"], 1)
        path = m.save(tmp_path / "manifest.json")
        d = json.loads(path.read_text())
        d["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="schema"):
            RunManifest.load(path)

    def test_pre_change_manifest_refused_by_version(self, tmp_path):
        """A v1 manifest's ``sweep_config`` still carries ``shards``, so
        its config hash can never match a rebuilt config. Resume refuses
        it by version, naming the real cause, instead of reporting a
        "different policy set" config mismatch."""
        from repro.api import run_sweep

        trace = _trace([[1, 0, 2]])
        v1_config = {
            "policies": ["pulse"], "n_runs": 1, "horizon_minutes": 3,
            "seed": 7, "engine": "fleet", "shards": 1, "sim": "",
            "resilient": False,
        }
        m = RunManifest.create(v1_config, trace, ["pulse"], 1)
        m.schema_version = 1
        path = m.save(tmp_path / "manifest.json")
        version_msg = r"manifest schema v1 is not readable by this build"
        with pytest.raises(ValueError, match=version_msg) as exc_info:
            run_sweep(trace, policies=["pulse"], durable=True, resume=path)
        assert "policy set" not in str(exc_info.value)

    def test_v2_manifest_refused_by_version(self, tmp_path):
        """A v2 manifest hashed a ``sim`` repr that still named
        ``track_containers``/``record_events``; resume refuses it by
        version rather than as a config mismatch."""
        from repro.api import run_sweep

        trace = _trace([[1, 0, 2]])
        v2_config = {
            "policies": ["pulse"], "n_runs": 1, "horizon_minutes": 3,
            "seed": 7, "engine": "auto",
            "sim": "SimulationConfig(track_containers=False, "
            "record_events=False)",
            "resilient": False,
        }
        m = RunManifest.create(v2_config, trace, ["pulse"], 1)
        m.schema_version = 2
        path = m.save(tmp_path / "manifest.json")
        version_msg = r"manifest schema v2 is not readable by this build"
        with pytest.raises(ValueError, match=version_msg) as exc_info:
            run_sweep(trace, policies=["pulse"], durable=True, resume=path)
        assert "sweep config mismatch" not in str(exc_info.value)

    def test_verify_trace_refuses_mismatch(self):
        m = RunManifest.create(SWEEP_CONFIG, _trace([[1, 2]]), ["pulse"], 1)
        m.verify_trace(_trace([[1, 2]]))  # identical content: fine
        with pytest.raises(ValueError, match="hash mismatch"):
            m.verify_trace(_trace([[9, 9]]))

    def test_summary_shape(self):
        m = RunManifest.create(SWEEP_CONFIG, _trace([[1]]), ["pulse"], 2)
        m.runs["pulse/000"].status = "done"
        m.runs["pulse/001"].status = "failed"
        assert m.summary() == {
            "runs": 2, "done": 1, "failed": 1,
            "retries": 0, "timeouts": 0, "quarantined": 0,
        }
