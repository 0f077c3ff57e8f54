"""Shared scale settings for the paper-shape checks.

Every bench reproduces one of the paper's tables or figures at reduced
scale (the paper runs 1000 simulations over a two-week trace; benches run
a handful over 1-2 days so the whole harness finishes in minutes) and
prints the rows/series the paper reports. Scale up by editing
``BENCH_RUNS`` / ``BENCH_HORIZON`` or calling the functions in
``repro.experiments`` directly with paper-scale parameters.

Each check calls its experiment function once and asserts the paper's
shape; timing lives in ``bench/``. Run with::

    PYTHONPATH=src python -m pytest benchmarks/ -q -s
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentConfig, default_trace
from repro.traces.schema import MINUTES_PER_DAY

BENCH_RUNS = 2
BENCH_HORIZON = 2 * MINUTES_PER_DAY
BENCH_SEED = 2024


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return ExperimentConfig(
        n_runs=BENCH_RUNS, horizon_minutes=BENCH_HORIZON, seed=BENCH_SEED
    )


@pytest.fixture(scope="session")
def bench_trace(bench_config):
    return default_trace(bench_config)


@pytest.fixture(scope="session")
def bench_assignment(bench_trace):
    from repro.experiments.assignments import sample_assignment

    return sample_assignment(bench_trace.n_functions, seed=BENCH_SEED)
