"""Span recording for the traced run.

Every layer is timed from outside: :meth:`Tracer.wrap` replaces a
public function or method of the program with a shim that records a
span around the original call, and :meth:`Tracer.unwrap_all` puts the
originals back. Nothing inside the program changes.

A span is ``(id, parent, name, rid, thread, start, end)``. The parent
is the span open on the same thread when the span started, and ``rid``
(one per request or simulated run) is inherited from the parent unless
given. Spans stay in memory and are written out as JSONL when the run
ends.

A span's *self time* is its duration minus its direct children's
durations; the roots' self time is the time no layer accounts for
(``unattributed``). Self times split the traced total only if every
child lies inside its parent on the parent's thread and siblings do
not overlap; :meth:`Tracer.problems` checks that, and that each
thread's root spans fit in the independently timed wall time of the
traced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    rid: Any
    thread: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Any = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        with self._lock:
            sid = next(self._ids)
        span = Span(sid, parent.id if parent else None, name, rid,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
    ) -> None:
        """Shim ``owner.attr`` so each call records a span.

        ``name`` is the span name, or a function of the call's
        arguments that returns it (e.g. to name a run by its policy).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def shim(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                return original(*args, **kwargs)

        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, shim)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- read-outs -----------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.by_name(name)]

    def self_time(self, span: Span) -> float:
        return span.duration - sum(
            s.duration for s in self.spans if s.parent == span.id
        )

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name; root spans' self time is
        reported under ``unattributed``."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            own = s.duration - child_time[s.id]
            out["unattributed" if s.parent is None else s.name] += own
        return dict(out)

    def total(self) -> float:
        """Summed duration of the root spans (the traced total)."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def problems(self, wall_s: float) -> list[str]:
        """Attribution errors; empty when the spans split the time.

        A child must lie inside its parent, on the parent's thread, and
        siblings (roots of one thread included) must not overlap:
        otherwise a self time is wrong, possibly negative. Each
        thread's roots must also fit in ``wall_s``, the wall time of the
        traced run timed apart from the spans, or time is counted twice.
        """
        by_id = {s.id: s for s in self.spans}
        siblings: dict[tuple, list[Span]] = defaultdict(list)
        out = []
        for s in self.spans:
            siblings[(s.parent, s.thread)].append(s)
            if s.parent is None:
                continue
            p = by_id.get(s.parent)
            if p is None:
                out.append(f"{s.name} #{s.id}: parent #{s.parent} not closed")
            elif s.thread != p.thread or s.start < p.start or s.end > p.end:
                out.append(f"{s.name} #{s.id} lies outside its parent "
                           f"{p.name} #{p.id}")
        for group in siblings.values():
            group.sort(key=lambda s: s.start)
            for a, b in zip(group, group[1:]):
                if b.start < a.end:
                    out.append(f"{a.name} #{a.id} overlaps {b.name} #{b.id}")
        roots: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is None:
                roots[s.thread] += s.duration
        for thread, total in roots.items():
            if total > wall_s:
                out.append(f"thread {thread}: root spans take {total:.6f} s "
                           f"of a {wall_s:.6f} s run")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s), default=str) + "\n")


def maybe_span(tracer: Tracer | None, name: str, rid: Any = None):
    """A span when tracing, otherwise nothing."""
    return tracer.span(name, rid) if tracer is not None else nullcontext()
