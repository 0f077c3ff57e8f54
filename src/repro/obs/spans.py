"""Named wall-clock phase accumulators.

Figure 9 reports one opaque number, ``policy_overhead_s``; the span timer
breaks it (and the engine's own wall-clock) into the named phases the
paper's pipeline actually consists of:

- ``estimate``         — inter-arrival probability computation;
- ``band-mapping``     — threshold-scheme level selection over the window;
- ``peak-detect``      — Algorithm 1 prior/IsPeak evaluation;
- ``downgrade-select`` — Algorithm 2 utility scoring + schedule rewrite
  (or the MILP build+solve);
- ``pool-reconcile``   — container pool reconciliation in the engine;
- ``engine-total``     — the whole run (added by ``Simulation.run``).

A span is just an accumulated ``(seconds, count)`` pair — there is no
per-span object allocation, so instrumented hot paths pay two
``perf_counter()`` calls and one dict update per sample.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["SpanTimer"]


class SpanTimer:
    """Accumulates wall-clock seconds and sample counts per phase name."""

    __slots__ = ("_phases",)

    def __init__(self) -> None:
        # phase -> [seconds, count]; a list so add() mutates in place.
        self._phases: dict[str, list[float]] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Fold one sample into ``phase`` (the hot-path entry point)."""
        acc = self._phases.get(phase)
        if acc is None:
            self._phases[phase] = [seconds, 1.0]
        else:
            acc[0] += seconds
            acc[1] += 1.0

    @contextmanager
    def span(self, phase: str):
        """``with spans.span("estimate"): ...`` convenience wrapper."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add(phase, time.perf_counter() - t0)

    # -- queries -------------------------------------------------------------
    def seconds(self, phase: str) -> float:
        acc = self._phases.get(phase)
        return acc[0] if acc else 0.0

    def count(self, phase: str) -> int:
        acc = self._phases.get(phase)
        return int(acc[1]) if acc else 0

    @property
    def phases(self) -> list[str]:
        return list(self._phases)

    @property
    def total_seconds(self) -> float:
        """Sum over every phase except ``engine-total`` (which contains
        the others and would double-count)."""
        return sum(
            acc[0] for name, acc in self._phases.items() if name != "engine-total"
        )

    def __len__(self) -> int:
        return len(self._phases)

    def __bool__(self) -> bool:
        return bool(self._phases)

    def as_dict(self) -> dict[str, dict[str, float]]:
        """``{phase: {"seconds": ..., "count": ...}}`` (JSONL / report form)."""
        return {
            name: {"seconds": acc[0], "count": acc[1]}
            for name, acc in self._phases.items()
        }

    def tree(self) -> dict:
        """The phases as one nested span tree, split on ``/``.

        The fleet engine names its phases hierarchically —
        ``serve``, ``reduce/peak-flatten`` — so its kernel timers and
        reducer timers merge into a single tree per run. A node is
        ``{"seconds", "count", "children"}``; an interior node with no
        samples of its own has ``seconds == 0`` and its children carry
        the time. Flat phase names ("estimate") come out as root leaves.
        """
        root: dict = {"seconds": 0.0, "count": 0, "children": {}}
        for name, acc in sorted(self._phases.items()):
            node = root
            for part in name.split("/"):
                node = node["children"].setdefault(
                    part, {"seconds": 0.0, "count": 0, "children": {}}
                )
            node["seconds"] += acc[0]
            node["count"] += int(acc[1])
        return root["children"]

    def merge(self, other: "SpanTimer") -> None:
        for name, acc in other._phases.items():
            mine = self._phases.get(name)
            if mine is None:
                self._phases[name] = [acc[0], acc[1]]
            else:
                mine[0] += acc[0]
                mine[1] += acc[1]

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={acc[0] * 1e3:.2f}ms/{int(acc[1])}"
            for name, acc in self._phases.items()
        )
        return f"SpanTimer({inner})"

    def __getstate__(self):
        return self._phases

    def __setstate__(self, state):
        self._phases = state
