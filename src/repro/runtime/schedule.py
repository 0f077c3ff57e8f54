"""The keep-alive ledger: who is planned to be warm, when, at which quality.

Policies write *plans* into the schedule — after an invocation of function
*f* at minute *t*, a plan assigns a model variant (or nothing) to each of
minutes *t+1 … t+K* (K = the keep-alive window, 10 in the paper). The
engine reads the schedule to decide warm/cold starts and to account
keep-alive memory; the global optimizer (PULSE's cross-function stage)
rewrites schedule entries during peaks via :meth:`downgrade`.

Later plans overwrite earlier ones minute-by-minute, which reproduces the
fixed policy's "extend on re-invocation" behaviour and lets adaptive
policies shorten or upgrade earlier decisions.

Memory accounting is a *canonical count ledger*: alongside the
per-function entry maps the schedule maintains, per minute, an integer
count of live entries per distinct container footprint. :meth:`memory_at`
evaluates the minute as a dot product over the footprints in ascending
order — a **canonical evaluation order** that depends only on *what* is
alive at the minute, never on the sequence of writes that got it there.
That property is what lets two very different engine loops (the
reference minute walk in :mod:`repro.runtime.simulator` and the columnar
fleet kernel in :mod:`repro.runtime.fleet`) produce bit-identical memory
series: each computes the same counts and folds them in the same
footprint order, so the floats agree to the last ulp.

Writes are O(1) (an integer count bump plus a dirty mark); the float
value of a touched minute is recomputed lazily at the next read, so a
minute read once per engine commit costs one short sorted fold (the zoo
has ~a dozen distinct footprints, and a single minute rarely holds more
than a few). Empty minutes read exactly ``0.0`` — the counts decide
emptiness, so no epsilon hacks are needed and rounding residue cannot
survive on an empty minute.

Two invariants the ledger maintains (property-tested in
``tests/test_runtime_schedule.py``):

- ``memory_at(m)`` equals the from-scratch sum of the entries at minute
  ``m`` (up to float rounding of the evaluation order);
- a minute whose last entry is removed reads exactly ``0.0``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.models.variants import ModelFamily, ModelVariant
from repro.utils.validation import check_positive_int

__all__ = ["KeepAliveSchedule"]


class KeepAliveSchedule:
    """Minute-indexed keep-alive decisions for every function.

    ``horizon_hint`` pre-sizes the memory vector (the engine passes
    ``trace.horizon + window``); the vector grows on demand when plans
    reach beyond it, so the hint is purely an allocation optimization.
    """

    def __init__(
        self,
        n_functions: int,
        keep_alive_window: int = 10,
        horizon_hint: int | None = None,
    ):
        check_positive_int("n_functions", n_functions)
        check_positive_int("keep_alive_window", keep_alive_window)
        self.n_functions = n_functions
        self.keep_alive_window = keep_alive_window
        # per function: {absolute minute -> planned variant}
        self._entries: list[dict[int, ModelVariant]] = [
            {} for _ in range(n_functions)
        ]
        # Per function: (plan_object, invocation_minute, is_uniform) of the
        # last set_plan, or None. When a policy re-installs the *same*
        # uniform plan object (fixed policies cache theirs), the minutes
        # covered by the previous install already hold its variant, so
        # set_plan only needs to write the net-new tail. Any other write
        # path (downgrade/clear/mark_alive) invalidates the record.
        self._last_plan: list[tuple | None] = [None] * n_functions
        size = max(horizon_hint or 0, 0) + keep_alive_window + 2
        # Count ledger: per minute, {footprint MB -> number of live
        # entries}. The float value in _mem is the canonical fold of that
        # dict (ascending footprints); minutes in _dirty have stale floats
        # and are re-folded on the next read.
        self._counts: list[dict[float, int]] = [{} for _ in range(size)]
        self._mem: list[float] = [0.0] * size
        self._dirty: set[int] = set()
        # Minutes strictly below the frontier have been forgotten by
        # advance(); used to pop them in O(1) per minute instead of
        # rescanning every entry map.
        self._frontier = 0

    # -- count-ledger internals ---------------------------------------------
    def _ensure(self, minute: int) -> None:
        """Grow the per-minute vectors to cover ``minute``."""
        need = minute + 1 - len(self._mem)
        if need > 0:
            grow = max(need, len(self._mem))  # at least double
            self._mem.extend([0.0] * grow)
            self._counts.extend({} for _ in range(grow))

    def _add(self, minute: int, memory_mb: float) -> None:
        d = self._counts[minute]
        d[memory_mb] = d.get(memory_mb, 0) + 1
        self._dirty.add(minute)

    def _remove(self, minute: int, memory_mb: float) -> None:
        d = self._counts[minute]
        c = d[memory_mb] - 1
        if c:
            d[memory_mb] = c
        else:
            del d[memory_mb]
        self._dirty.add(minute)

    def _fold(self, minute: int) -> float:
        """Canonical evaluation: counts × footprints, ascending footprint
        order. Order-independent by construction, so every engine that
        reproduces the counts reproduces the float bit-for-bit."""
        acc = 0.0
        d = self._counts[minute]
        for fp in sorted(d):
            acc += d[fp] * fp
        self._mem[minute] = acc
        return acc

    def _flush(self, start: int, stop: int) -> None:
        """Re-fold every dirty minute in ``[start, stop)``."""
        dirty = self._dirty
        if not dirty:
            return
        stale = [m for m in dirty if start <= m < stop]
        for m in stale:
            self._fold(m)
        dirty.difference_update(stale)

    # -- writes -------------------------------------------------------------
    def mark_alive(self, function_id: int, minute: int, variant: ModelVariant) -> None:
        """Record that a container serves (and therefore lives) at ``minute``.

        Used when a cold start at ``minute`` brings a container up: it
        consumes keep-alive memory for the remainder of that minute.
        """
        self._check_fid(function_id)
        if minute < 0:
            raise ValueError(f"minute must be >= 0, got {minute}")
        self._ensure(minute)
        self._last_plan[function_id] = None
        entries = self._entries[function_id]
        old = entries.get(minute)
        if old is not None:
            if old is variant or old == variant:
                return
            del entries[minute]
            self._remove(minute, old.memory_mb)
        entries[minute] = variant
        self._add(minute, variant.memory_mb)

    def set_plan(
        self,
        function_id: int,
        invocation_minute: int,
        plan: Sequence[ModelVariant | None],
    ) -> None:
        """Install a policy's plan for minutes ``invocation_minute + 1 ..``.

        ``plan[d-1]`` is the decision for offset ``d``; ``None`` entries
        clear any previously planned keep-alive for that minute.
        """
        # Validation is inlined (no helper calls) — this is the single
        # hottest write of the engine, called once per served invocation.
        if not 0 <= function_id < self.n_functions:
            self._check_fid(function_id)
        n = len(plan)
        if n > self.keep_alive_window:
            raise ValueError(
                f"plan of length {n} exceeds keep-alive window "
                f"{self.keep_alive_window}"
            )
        if invocation_minute < -1:
            raise ValueError(
                f"invocation_minute must be >= -1, got {invocation_minute}"
            )
        if invocation_minute + n >= len(self._mem):
            self._ensure(invocation_minute + n)
        counts = self._counts
        dirty = self._dirty
        entries = self._entries[function_id]
        get = entries.get

        last = self._last_plan[function_id]
        if (
            last is not None
            and last[0] is plan
            and last[2]  # uniform: offsets are interchangeable
            and invocation_minute >= last[1]
            # advance() may have pruned minutes <= frontier - 1; the reused
            # span [invocation_minute + 1, last[1] + n] is intact as long
            # as the frontier never moved past the current minute.
            and self._frontier <= invocation_minute + 1
        ):
            # Same uniform plan object re-installed at a later minute:
            # minutes up to last[1] + n already hold its variant (no other
            # write path touched them, or the record would be None), so
            # only the net-new tail needs the generic treatment.
            start = last[1] + n + 1
            self._last_plan[function_id] = (plan, invocation_minute, True)
            if start > invocation_minute + n:
                return
            variant = plan[0]
            fp = variant.memory_mb
            for m in range(start, invocation_minute + n + 1):
                old = get(m)
                if old is None:
                    entries[m] = variant
                    d = counts[m]
                    d[fp] = d.get(fp, 0) + 1
                    dirty.add(m)
                elif old is not variant:
                    entries[m] = variant
                    d = counts[m]
                    c = d[old.memory_mb] - 1
                    if c:
                        d[old.memory_mb] = c
                    else:
                        del d[old.memory_mb]
                    d[fp] = d.get(fp, 0) + 1
                    dirty.add(m)
            return

        uniform = True
        v0 = plan[0] if n else None
        m = invocation_minute
        for variant in plan:
            m += 1
            if variant is not v0:
                uniform = False
            old = get(m)
            if variant is None:
                if old is not None:
                    del entries[m]
                    self._remove(m, old.memory_mb)
            elif old is None:
                entries[m] = variant
                d = counts[m]
                fp = variant.memory_mb
                d[fp] = d.get(fp, 0) + 1
                dirty.add(m)
            elif old is not variant:
                entries[m] = variant
                d = counts[m]
                c = d[old.memory_mb] - 1
                if c:
                    d[old.memory_mb] = c
                else:
                    del d[old.memory_mb]
                fp = variant.memory_mb
                d[fp] = d.get(fp, 0) + 1
                dirty.add(m)
        self._last_plan[function_id] = (
            plan,
            invocation_minute,
            uniform and v0 is not None,  # all-None plans stay on the generic path
        )

    def clear(self, function_id: int, minute: int) -> None:
        """Remove any keep-alive decision for one minute."""
        self._check_fid(function_id)
        self._last_plan[function_id] = None
        old = self._entries[function_id].pop(minute, None)
        if old is not None:
            self._remove(minute, old.memory_mb)

    def downgrade(
        self,
        function_id: int,
        from_minute: int,
        family: ModelFamily,
        allow_drop: bool = True,
    ) -> float:
        """Downgrade every planned entry of a function from ``from_minute`` on.

        Each entry is replaced by its next-lower variant. Entries already
        at the lowest variant are removed when ``allow_drop`` is true (the
        paper: "warm starts with models having lower accuracy, or even
        cold starts") and left untouched otherwise — the caller decides
        droppability per *function* (PULSE protects functions that still
        have a chance of invocation), so it must not be implied per entry.
        Returns the memory in MB freed **at ``from_minute``** — the
        quantity the peak-flattening loop iterates on.

        Entries can only exist within one keep-alive window of the most
        recent write, so the walk covers ``from_minute .. from_minute + K``
        — O(K) regardless of how many stale past entries remain.
        """
        self._check_fid(function_id)
        self._last_plan[function_id] = None
        entries = self._entries[function_id]
        freed_now = 0.0
        for m in range(from_minute, from_minute + self.keep_alive_window + 1):
            old = entries.get(m)
            if old is None:
                continue
            new = family.downgrade(old)
            if new is None:
                if not allow_drop:
                    continue
                del entries[m]
                self._remove(m, old.memory_mb)
                if m == from_minute:
                    freed_now += old.memory_mb
            else:
                entries[m] = new
                self._remove(m, old.memory_mb)
                self._add(m, new.memory_mb)
                if m == from_minute:
                    freed_now += old.memory_mb - new.memory_mb
        return freed_now

    def advance(self, minute: int) -> None:
        """Forget entries strictly before ``minute`` (bounds memory use)."""
        start = self._frontier
        if minute <= start:
            return
        self._frontier = minute
        span = minute - start
        for entries in self._entries:
            if not entries:
                continue
            if span <= 4 * len(entries):
                for m in range(start, minute):
                    old = entries.pop(m, None)
                    if old is not None:
                        self._remove(m, old.memory_mb)
            else:
                # Huge jump (e.g. advance(10**9) from a cold schedule):
                # scanning the few live entries beats walking the range.
                for m in [m for m in entries if m < minute]:
                    self._remove(m, entries.pop(m).memory_mb)

    # -- reads --------------------------------------------------------------
    def alive_variant(self, function_id: int, minute: int) -> ModelVariant | None:
        """The variant planned to be warm for a function at ``minute``."""
        self._check_fid(function_id)
        return self._entries[function_id].get(minute)

    def alive_at(self, minute: int) -> dict[int, ModelVariant]:
        """All (function -> variant) keep-alives at ``minute``."""
        return {
            fid: entries[minute]
            for fid, entries in enumerate(self._entries)
            if minute in entries
        }

    def memory_at(self, minute: int) -> float:
        """Total keep-alive memory (MB) at ``minute``."""
        if 0 <= minute < len(self._mem):
            if minute in self._dirty:
                self._dirty.discard(minute)
                return self._fold(minute)
            return self._mem[minute]
        return 0.0

    def footprint_counts(self, minute: int) -> dict[float, int]:
        """The minute's raw count ledger (footprint MB -> live entries).

        Returns a copy; the canonical value of the minute is the fold of
        this dict in ascending-footprint order (see :meth:`memory_at`).
        The fleet engine's parity tests read this to compare integer
        state, which is sturdier than comparing folded floats.
        """
        if 0 <= minute < len(self._counts):
            return dict(self._counts[minute])
        return {}

    @property
    def memory_vector(self) -> np.ndarray:
        """The per-minute canonical memory ledger (MB).

        Index ``m`` is absolute minute ``m``; minutes beyond the last
        written plan are 0. Returns a copy — the live ledger only changes
        through the write methods.
        """
        self._flush(0, len(self._mem))
        return np.asarray(self._mem, dtype=np.float64)

    def recompute_memory_at(self, minute: int) -> float:
        """From-scratch O(n_functions) recomputation of :meth:`memory_at`
        (the reference the count ledger is property-tested against)."""
        return sum(
            entries[minute].memory_mb
            for entries in self._entries
            if minute in entries
        )

    def planned_minutes(self, function_id: int) -> list[int]:
        """Sorted minutes with a keep-alive decision for a function."""
        self._check_fid(function_id)
        return sorted(self._entries[function_id])

    def _check_fid(self, function_id: int) -> None:
        if not 0 <= function_id < self.n_functions:
            raise IndexError(
                f"function_id {function_id} out of range 0..{self.n_functions - 1}"
            )
