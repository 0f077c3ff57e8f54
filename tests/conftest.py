"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.assignments import sample_assignment
from repro.models.zoo import default_zoo
from repro.traces.schema import FunctionSpec, Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace


@pytest.fixture(scope="session")
def zoo():
    return default_zoo()


@pytest.fixture(scope="session")
def gpt(zoo):
    return zoo.family("GPT")


@pytest.fixture(scope="session")
def bert(zoo):
    return zoo.family("BERT")


@pytest.fixture(scope="session")
def small_trace() -> Trace:
    """A fast 12-function trace (12 hours) for integration tests."""
    return generate_trace(SyntheticTraceConfig(horizon_minutes=720, seed=42))


@pytest.fixture(scope="session")
def tiny_trace() -> Trace:
    """A hand-written 3-function trace with known invocation minutes."""
    counts = np.zeros((3, 60), dtype=np.int64)
    counts[0, [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]] = 1  # strict 5-min timer
    counts[1, [3, 4, 5, 30, 31, 32]] = 2  # two bursts
    counts[2, 48] = 1  # a single late invocation
    specs = (
        FunctionSpec(0, "timer", "periodic"),
        FunctionSpec(1, "bursty", "bursty"),
        FunctionSpec(2, "oneshot", "sparse"),
    )
    return Trace(counts=counts, functions=specs, name="tiny")


@pytest.fixture()
def assignment(small_trace, zoo):
    return sample_assignment(small_trace.n_functions, zoo, seed=1)


@pytest.fixture()
def tiny_assignment(tiny_trace, zoo):
    fams = list(zoo)
    return {fid: fams[fid % len(fams)] for fid in range(tiny_trace.n_functions)}


def assert_records_equal(actual, expected, what: str = "records") -> None:
    """Assert two record lists are equal, reporting only the first
    difference.

    A bare ``assert a == b`` over a run's decision records makes pytest
    diff the whole lists when it fails, which can take minutes of CPU
    and gigabytes of memory. This checks the lengths, then names the
    first differing index and its two records.
    """
    actual, expected = list(actual), list(expected)
    if actual == expected:
        return
    first = next(
        (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
        min(len(actual), len(expected)),
    )

    def at(records: list) -> str:
        return repr(records[first]) if first < len(records) else "<none>"

    raise AssertionError(
        f"{what}: {len(actual)} records, expected {len(expected)}; first "
        f"difference at index {first}:\n  got      {at(actual)}\n"
        f"  expected {at(expected)}"
    )
