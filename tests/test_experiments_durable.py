"""The durable sweep executor: chaos, retries, timeouts, resume.

These are the crash tests: workers are SIGKILLed or hung mid-run by the
deterministic chaos hooks, and the assertions pin the recovery contract
— every run converges, and the recovered artifacts are byte-identical
to an uninterrupted sweep's.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.durable import (
    DurableSweepConfig,
    run_durable_sweep,
)
from repro.experiments.manifest import RunManifest
from repro.experiments.runner import ExperimentConfig

POLICIES = ["pulse", "openwhisk"]


def _config(n_jobs: int = 2) -> ExperimentConfig:
    return ExperimentConfig(
        n_runs=2, horizon_minutes=60, seed=11, n_jobs=n_jobs, engine="reference"
    )


def _artifacts(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted((out_dir / "runs").glob("*.json"))
        if not p.name.endswith(".error.json")
    }


@pytest.fixture(scope="module")
def clean_sweep(tiny_trace, tmp_path_factory):
    """One uninterrupted sweep: the byte-identity baseline."""
    out = tmp_path_factory.mktemp("clean")
    result = run_durable_sweep(
        tiny_trace, POLICIES, _config(), out_dir=out,
        durable=DurableSweepConfig(checkpoint_every=15),
    )
    return result, out


class TestCleanSweep:
    def test_all_runs_done(self, clean_sweep):
        result, _out = clean_sweep
        assert result.ok
        assert result.manifest.summary()["done"] == 4
        assert result.manifest.n_retries == 0

    def test_summaries_loaded_per_run(self, clean_sweep):
        result, _out = clean_sweep
        for policy in POLICIES:
            assert len(result.summaries[policy]) == 2
            for idx, summary in enumerate(result.summaries[policy]):
                assert summary["run_id"] == f"{policy}/{idx:03d}"
                assert "wall_clock_s" not in summary
                assert summary["n_checkpoints"] >= 1

    def test_manifest_is_valid_json_on_disk(self, clean_sweep):
        _result, out = clean_sweep
        m = RunManifest.load(out / "manifest.json")
        assert m.n_done == 4
        for rec in m.runs.values():
            assert (out / rec.artifact).exists()

    def test_sweep_counters(self, clean_sweep):
        result, _out = clean_sweep
        flat = result.obs.metrics.as_flat_dict()
        assert flat["sweep_runs_done_total"] == 4
        # never-incremented counters have no series yet
        assert flat.get("sweep_retries_total", 0) == 0


class TestChaosKill:
    def test_sigkilled_workers_recover_bit_identically(
        self, tiny_trace, tmp_path, clean_sweep
    ):
        _clean_result, clean_out = clean_sweep
        result = run_durable_sweep(
            tiny_trace, POLICIES, _config(), out_dir=tmp_path,
            durable=DurableSweepConfig(checkpoint_every=15, chaos="kill:1"),
        )
        assert result.ok
        # Every first attempt died at its first checkpoint -> one retry
        # per run, resumed from the checkpoint file.
        assert result.manifest.n_retries == 4
        assert _artifacts(tmp_path) == _artifacts(clean_out)

    def test_exhausted_retries_become_failed_records(
        self, tiny_trace, tmp_path
    ):
        # kill:1 on every first attempt and no retry budget: every run
        # fails, the sweep still completes and reports faithfully.
        result = run_durable_sweep(
            tiny_trace, POLICIES, _config(), out_dir=tmp_path,
            durable=DurableSweepConfig(
                checkpoint_every=15, chaos="kill:1", max_retries=0
            ),
        )
        assert not result.ok
        assert result.manifest.n_failed == 4
        for rec in result.manifest.runs.values():
            assert rec.status == "failed"
            assert rec.error["kind"] == "killed"
        assert all(
            s is None for runs in result.summaries.values() for s in runs
        )

    def test_failed_sweep_resumes_to_done(
        self, tiny_trace, tmp_path, clean_sweep
    ):
        _clean_result, clean_out = clean_sweep
        first = run_durable_sweep(
            tiny_trace, POLICIES, _config(), out_dir=tmp_path,
            durable=DurableSweepConfig(
                checkpoint_every=15, chaos="kill:1", max_retries=0
            ),
        )
        assert first.manifest.n_failed == 4
        # Resume with the same parameters: chaos only fires on attempt 1,
        # so every run now completes from its checkpoint.
        manifest = RunManifest.load(tmp_path / "manifest.json")
        second = run_durable_sweep(
            tiny_trace, POLICIES, _config(), out_dir=tmp_path,
            durable=DurableSweepConfig(
                checkpoint_every=15, chaos="kill:1", max_retries=0
            ),
            resume=manifest,
        )
        assert second.ok
        assert second.manifest.n_done == 4
        assert _artifacts(tmp_path) == _artifacts(clean_out)


class TestChaosHang:
    def test_hung_workers_are_timed_out_and_retried(
        self, tiny_trace, tmp_path
    ):
        result = run_durable_sweep(
            tiny_trace, ["pulse"], _config(), out_dir=tmp_path,
            durable=DurableSweepConfig(
                checkpoint_every=15, chaos="hang:1", timeout_s=1.5
            ),
        )
        assert result.ok
        assert result.manifest.n_timeouts == 2
        assert result.manifest.n_retries == 2
        for rec in result.manifest.runs.values():
            assert rec.status == "done"


class TestResumeGuards:
    def test_resume_refuses_different_config(self, tiny_trace, tmp_path):
        run_durable_sweep(
            tiny_trace, ["pulse"], _config(), out_dir=tmp_path,
            durable=DurableSweepConfig(checkpoint_every=15),
        )
        manifest = RunManifest.load(tmp_path / "manifest.json")
        other = ExperimentConfig(
            n_runs=3, horizon_minutes=60, seed=11, n_jobs=2, engine="reference"
        )
        with pytest.raises(ValueError, match="config mismatch"):
            run_durable_sweep(
                tiny_trace, ["pulse"], other, out_dir=tmp_path,
                durable=DurableSweepConfig(checkpoint_every=15),
                resume=manifest,
            )

    def test_resume_refuses_different_trace(
        self, tiny_trace, small_trace, tmp_path
    ):
        run_durable_sweep(
            tiny_trace, ["pulse"], _config(), out_dir=tmp_path,
            durable=DurableSweepConfig(checkpoint_every=15),
        )
        manifest = RunManifest.load(tmp_path / "manifest.json")
        with pytest.raises(ValueError, match="hash mismatch"):
            run_durable_sweep(
                small_trace, ["pulse"], _config(), out_dir=tmp_path,
                durable=DurableSweepConfig(checkpoint_every=15),
                resume=manifest,
            )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_s": 0},
            {"max_retries": -1},
            {"checkpoint_every": 0},
            {"chaos": "explode:1"},
            {"chaos": "kill:0"},
            {"chaos": "kill"},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DurableSweepConfig(**kwargs)


class TestErrorSidecars:
    def test_worker_exception_recorded(self, tiny_trace, tmp_path):
        # An unknown policy slips past run_durable_sweep (only repro.api
        # validates names), so the worker's policy_spec lookup raises —
        # exercising the exception -> sidecar -> failed-record path.
        result = run_durable_sweep(
            tiny_trace, ["no-such-policy"], _config(n_jobs=1),
            out_dir=tmp_path,
            durable=DurableSweepConfig(checkpoint_every=15, max_retries=0),
        )
        assert not result.ok
        rec = result.manifest.runs["no-such-policy/000"]
        assert rec.status == "failed"
        assert rec.error["kind"] == "exception"
        assert rec.error["type"] == "ValueError"
        assert "no-such-policy" in rec.error["message"]
        sidecar = tmp_path / "runs" / "no-such-policy-000.error.json"
        assert "Traceback" in json.loads(sidecar.read_text())["traceback"]
