"""Shared helpers for the benchmark: statistics, failure accounting,
output checks, provenance and the result record.

Nothing here imports ``repro`` at import time (``quality`` does when
called); the workload modules do, after ``run.py`` has put the
checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

#: Summary fields that hold host wall-clock time rather than simulated
#: outcomes; every output check compares summaries without them.
WALL_FIELDS = frozenset({"wall_clock_s", "overhead_s"})

#: The percentile rule: a percentile is reported only when at least this
#: many samples lie beyond it.
MIN_BEYOND = 10
#: Samples a p99 needs under that rule.
P99_SAMPLES = 100 * MIN_BEYOND


#: The read mix beside the advances, the same for the HTTP client and
#: the in-process control loop. A Prometheus server scrapes each target
#: once per ``scrape_interval``, one minute by default (Prometheus
#: configuration docs, ``global.scrape_interval``); a tenant advances
#: once per simulated minute, so a metrics read follows every advance.
METRICS_EVERY = 1
#: One function's decision stream is read every 30 minutes. No
#: documented usage pattern backs this cadence: it is a chosen one.
DECISIONS_EVERY = 30


def reads_after(minute: int, n_functions: int) -> list[tuple[str, int]]:
    """The reads that follow the advance of ``minute``: ``("metrics",
    -1)`` and/or ``("decisions", fid)``."""
    reads = []
    if (minute + 1) % METRICS_EVERY == 0:
        reads.append(("metrics", -1))
    if (minute + 1) % DECISIONS_EVERY == 0:
        reads.append(("decisions", (minute // DECISIONS_EVERY) % n_functions))
    return reads


class PercentileRefused(ValueError):
    """A percentile was asked of too few samples to resolve it."""


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``samples``.

    Refuses (raises :class:`PercentileRefused`) unless at least
    :data:`MIN_BEYOND` samples lie beyond the chosen rank, so a tail
    figure always rests on a tail, never on one or two outliers.
    """
    n = len(samples)
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise PercentileRefused(
            f"p{p:g} of {n} samples leaves {beyond} beyond it; "
            f"need at least {MIN_BEYOND} (so at least "
            f"{math.ceil(MIN_BEYOND * 100 / (100 - p))} samples)"
        )
    return sorted(samples)[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def summary_diff(a: dict, b: dict) -> list[str]:
    """Keys on which two ``RunResult.summary()`` dicts differ, ignoring
    the wall-clock fields. Empty means the runs are identical."""
    keys = (set(a) | set(b)) - WALL_FIELDS
    return sorted(k for k in keys if a.get(k) != b.get(k))


@dataclass
class Tally:
    """Attempted and failed operations of one run.

    An operation is a simulation run, an HTTP request or an output
    check. A non-2xx response (429 and 503 refusals included), an
    exception, or a check mismatch each counts as one failure.
    """

    attempted: int = 0
    failed: int = 0
    statuses: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem or "operation failed")
        return ok

    def http(self, status: int, what: str) -> bool:
        self.statuses[status] += 1
        return self.op(200 <= status < 300, f"{what}: HTTP {status}")

    def check(self, what: str, differences: list[str]) -> bool:
        """One output check; ``differences`` lists what did not match."""
        return self.op(
            not differences, f"{what}: mismatch in {', '.join(differences)}"
        )

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.statuses.update(other.statuses)
        self.problems.extend(other.problems)

    @property
    def failed_pct(self) -> float:
        return 100.0 * self.failed / self.attempted if self.attempted else 0.0

    def status_counts(self) -> dict[str, int]:
        return {
            "serve.status_429": self.statuses[429],
            "serve.status_503": self.statuses[503],
            "serve.status_5xx": sum(
                n for s, n in self.statuses.items() if 500 <= s < 600
            ),
        }


class Window:
    """The measured interval of a run: ``seconds`` long, started now."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def fits(self, expected_s: float) -> bool:
        """True while ``expected_s`` more seconds end inside the window.
        Given half a step, the run ends as near the window's end as the
        steps allow."""
        return self.elapsed + expected_s <= self.seconds


def quality(ow: list, pu: list) -> dict[str, float]:
    """The paper's headline comparison of PULSE against OpenWhisk over
    paired ``RunResult`` lists on the same inputs, as
    ``experiments/headline.py`` makes it: the means of
    ``aggregate_results`` and their ``percent_improvement``."""
    from repro.runtime.metrics import aggregate_results, percent_improvement

    base, pulse = aggregate_results(ow), aggregate_results(pu)

    def saving(key: str) -> float:
        return percent_improvement(base[key], pulse[key],
                                   higher_is_better=False)

    return {
        "ka_cost_saving_pct": saving("keepalive_cost_usd"),
        "service_time_saving_pct": saving("service_time_s"),
        "accuracy_loss_pct": base["accuracy_percent"]
        - pulse["accuracy_percent"],
    }


def guards(runs: list) -> dict[str, float]:
    """Exact counts summed over ``RunResult`` objects: a speed-only
    change must leave them unchanged."""
    return {
        "runtime.invocations": float(sum(r.n_invocations for r in runs)),
        "runtime.cold_starts": float(sum(r.n_cold for r in runs)),
        "runtime.forced_downgrades": float(
            sum(r.n_forced_downgrades for r in runs)
        ),
    }


def active_shares(counts) -> dict[str, float]:
    """Share of (function, minute) cells and of minutes with at least
    one invocation: the input property idle skipping depends on."""
    return {
        "traces.active_cell_share": float((counts > 0).mean()),
        "traces.active_minute_share": float((counts.sum(axis=0) > 0).mean()),
    }


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``metrics`` maps metric names to values (units come from
    ``BENCHMARK.json``); ``record`` is the provenance and detail that
    goes into the human-readable report and the ``--out`` file.
    """

    metrics: dict[str, float]
    record: dict


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
