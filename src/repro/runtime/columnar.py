"""Columnar (struct-of-arrays) state for the fleet engine.

The fleet engine (:mod:`repro.runtime.fleet`) simulates 10⁴–10⁵ functions
by replacing the per-function Python objects of the reference loop with
dense numpy arrays keyed by function id. This module holds those arrays
and the vectorized kernels over them; the engine loop orchestrates.

Bit-identity with the reference engine is the design constraint, not a
best-effort goal. Three properties make it achievable:

- **Canonical memory evaluation.** :class:`KeepAliveSchedule` evaluates a
  minute's keep-alive memory as counts × footprints in ascending-footprint
  order. :class:`RingSchedule` maintains the same integer counts (as a
  ``(ring column, footprint slot)`` matrix) and folds them in the same
  slot order, so both reach the same float bit-for-bit.
- **Elementwise-identical float expressions.** Every float the reference
  computes per function (probabilities, utility values, service-time
  contributions) is a short expression over scalars; evaluating the same
  expression elementwise over float64 arrays produces the same values,
  because IEEE arithmetic is deterministic per element. Sequential
  *accumulations* (service time, row-wise ``cumsum`` of probabilities)
  are reproduced with sequential folds — see :func:`seq_fold`.
- **Order-free integer state.** Invocation histograms, in-window
  totals, entry counts and downgrade counters are integers, and integer
  additions commute: the footprint ledger takes a whole write's change
  as one net delta (a ``np.bincount`` of the entries written minus one
  of the entries they replace), and reaches the counts the reference's
  per-function updates reach.

Nothing here imports the engine or the policies: the kernels are pure
state + math, testable in isolation.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.models.variants import ModelFamily, ModelVariant

__all__ = [
    "ColumnarEstimator",
    "RingSchedule",
    "VariantTables",
    "seq_fold",
]


def seq_fold(acc: float, values: np.ndarray) -> float:
    """Fold ``values`` into ``acc`` by strictly sequential float addition.

    Equivalent to ``for v in values: acc += v`` — numpy's ``cumsum`` adds
    elements one at a time in order (unlike ``sum``, which may use
    pairwise summation), so the last partial sum is exactly the scalar
    loop's result. The engine uses this to accumulate per-invocation
    service-time and accuracy contributions in the reference loop's
    order without a Python-level loop. Pinned against the scalar loop by
    a unit test in ``tests/test_engine_fleet.py``.
    """
    if values.size == 0:
        return acc
    return float(np.cumsum(np.concatenate(((acc,), values)))[-1])


class VariantTables:
    """Per-(family, level) lookup tables for a fleet's assignment.

    A fleet has at most a handful of distinct model families (the zoo has
    five) shared by all functions, so every per-variant quantity the
    engine needs — service times, accuracy, footprint, the utility *Ai*
    term — is a small dense ``(family, level)`` table indexed by
    ``fam_idx[fid]`` and a variant level. Container footprints are
    additionally mapped to *slots*: the ascending sequence of distinct
    footprint values across all families, which is exactly the canonical
    evaluation order of :meth:`KeepAliveSchedule.memory_at`.
    """

    def __init__(self, assignment: dict[int, ModelFamily], n_functions: int):
        families: list[ModelFamily] = []
        index_of: dict[ModelFamily, int] = {}
        # Assignments share a few family objects among all fids: key by
        # identity first, so each distinct object is hashed (a dataclass
        # hash over its variants) once, and equal copies still merge.
        index_of_id: dict[int, int] = {}
        fam_list: list[int] = []
        for fid in range(n_functions):
            fam = assignment[fid]
            i = index_of_id.get(id(fam))
            if i is None:
                i = index_of.get(fam)
                if i is None:
                    i = index_of[fam] = len(families)
                    families.append(fam)
                index_of_id[id(fam)] = i
            fam_list.append(i)
        fam_idx = np.array(fam_list, dtype=np.int64)
        n_fam = len(families)
        width = max(f.n_variants for f in families)

        self.families = families
        self.fam_idx = fam_idx
        #: number of variants of each function's family (the paper's N)
        self.n_variants = np.array(
            [f.n_variants for f in families], dtype=np.int64
        )[fam_idx]

        self.warm_s = np.zeros((n_fam, width))
        self.cold_s = np.zeros((n_fam, width))
        self.accuracy = np.zeros((n_fam, width))
        self.memory_mb = np.zeros((n_fam, width))
        self.ai = np.zeros((n_fam, width))  # family.accuracy_improvement
        #: the zoo's singleton variant objects, for decision-trace names
        #: and fault injection
        self.variant_objs: list[list[ModelVariant]] = []
        for i, fam in enumerate(families):
            row = []
            for level, v in enumerate(fam.variants):
                self.warm_s[i, level] = v.warm_service_time_s
                self.cold_s[i, level] = v.cold_service_time_s
                self.accuracy[i, level] = v.accuracy
                self.memory_mb[i, level] = v.memory_mb
                self.ai[i, level] = fam.accuracy_improvement(v)
                row.append(v)
            self.variant_objs.append(row)

        #: distinct footprints ascending — the canonical fold order
        self.slot_fps: list[float] = sorted(
            {v.memory_mb for f in families for v in f.variants}
        )
        self.n_slots = len(self.slot_fps)
        self.slot_of = np.zeros((n_fam, width), dtype=np.int64)
        for i, fam in enumerate(families):
            for level, v in enumerate(fam.variants):
                self.slot_of[i, level] = self.slot_fps.index(v.memory_mb)

        #: per-fid footprint of the family's highest variant (ideal series)
        self.highest_mb = self.memory_mb[fam_idx, self.n_variants - 1]

    def variant(self, fam: int, level: int) -> ModelVariant:
        """The singleton variant object at ``(family index, level)``."""
        return self.variant_objs[fam][level]


class ColumnarEstimator:
    """Vectorized :class:`~repro.core.interarrival.InterArrivalEstimator`.

    Holds the fleet's inter-arrival state as dense arrays over function
    ids. The reference keeps a per-function deque of
    ``(arrival minute, gap)`` pairs and evicts lazily at query time; here
    the recent queue is a deque of *per-minute batches* and eviction runs
    eagerly once per minute. The two are equivalent: a query at minute
    ``now`` sees exactly the gaps whose arrival minute is ``>= now -
    local_window``, however the eviction work was scheduled.

    Query results are the same float64 values the reference computes —
    the normalizing divisions, the averaging of the two periods and the
    mode transforms are the same elementwise expressions, and the
    ``cumsum``-based mode transforms add in the same order.
    """

    def __init__(
        self,
        n_functions: int,
        window: int,
        local_window: int,
        normalization: str,
        mode: str,
    ):
        self.n_functions = n_functions
        self.window = window
        self.local_window = local_window
        self.normalization = normalization
        self.mode = mode
        self.last_arrival = np.full(n_functions, -1, dtype=np.int64)
        # index d-1 = count of inter-arrivals of exactly d minutes, d<=W
        # ``*_in`` is a row's sum (gaps inside the window), ``*_total``
        # counts every gap — the reference history's running sums.
        self.lifetime_counts = np.zeros((n_functions, window), dtype=np.int64)
        self.lifetime_in = np.zeros(n_functions, dtype=np.int64)
        self.lifetime_total = np.zeros(n_functions, dtype=np.int64)
        self.recent_counts = np.zeros((n_functions, window), dtype=np.int64)
        self.recent_in = np.zeros(n_functions, dtype=np.int64)
        self.recent_total = np.zeros(n_functions, dtype=np.int64)
        # (minute, fids, gaps) batches; fids unique within a batch
        self._batches: deque[tuple[int, np.ndarray, np.ndarray]] = deque()

    def evict(self, now: int) -> None:
        """Drop recent-period gaps older than the local window.

        Call once at the start of each minute, before any query at that
        minute — the reference evicts lazily per query with the same
        ``arrival < now - local_window`` cutoff.
        """
        cutoff = now - self.local_window
        batches = self._batches
        while batches and batches[0][0] < cutoff:
            _, fids, gaps = batches.popleft()
            self.recent_total[fids] -= 1
            inside = gaps <= self.window
            if inside.any():
                hit = fids[inside]
                self.recent_counts[hit, gaps[inside] - 1] -= 1
                self.recent_in[hit] -= 1

    def observe(self, fids: np.ndarray, minute: int) -> None:
        """Record one arrival at ``minute`` for each function in ``fids``.

        ``fids`` must be unique (the engine passes each minute's invoking
        functions once — multiple invocations within a minute are one
        arrival at the paper's minute resolution).
        """
        prev = self.last_arrival[fids]
        seen = prev >= 0
        if seen.any():
            gapped = fids[seen]
            gaps = minute - prev[seen]
            self.lifetime_total[gapped] += 1
            self.recent_total[gapped] += 1
            inside = gaps <= self.window
            if inside.any():
                hit, col = gapped[inside], gaps[inside] - 1
                self.lifetime_counts[hit, col] += 1
                self.lifetime_in[hit] += 1
                self.recent_counts[hit, col] += 1
                self.recent_in[hit] += 1
            self._batches.append((minute, gapped, gaps))
        self.last_arrival[fids] = minute

    def no_history(self, fids: np.ndarray) -> np.ndarray:
        """Mask of functions with no inter-arrival data in either period."""
        return (self.lifetime_total[fids] == 0) & (self.recent_total[fids] == 0)

    def exact_rows(self, fids: np.ndarray) -> np.ndarray:
        """P(gap = d) rows for ``fids``, d = 1..window.

        Mirrors ``InterArrivalEstimator._exact``: each period's histogram
        over its denominator, averaged when both periods have data, the
        informative one alone otherwise, zeros when neither does.

        One expression gives all three cases bit for bit: a period with a
        zero denominator has an all-zero histogram row, so its term
        (divided by 1 instead) is ``0.0`` and ``x + 0.0 == x``; where
        both periods have data, ``x * 0.5`` is the reference's
        ``x / 2.0``.
        """
        if self.normalization == "window":
            ld = self.lifetime_in[fids]
            rd = self.recent_in[fids]
        else:
            ld = self.lifetime_total[fids]
            rd = self.recent_total[fids]
        out = self.lifetime_counts.take(fids, axis=0) / np.maximum(ld, 1)[:, None]
        out += self.recent_counts.take(fids, axis=0) / np.maximum(rd, 1)[:, None]
        out *= np.where((ld > 0) & (rd > 0), 0.5, 1.0)[:, None]
        return out

    def mode_rows(self, exact: np.ndarray) -> np.ndarray:
        """Apply the configured probability mode row-wise.

        Row-wise ``cumsum`` adds sequentially along the axis, matching
        the reference's 1-D ``cumsum`` per function.
        """
        if self.mode == "exact":
            return exact
        if self.mode == "cumulative":
            return np.minimum(np.cumsum(exact, axis=1), 1.0)
        survival = np.minimum(np.cumsum(exact[:, ::-1], axis=1)[:, ::-1], 1.0)
        if self.mode == "survival":
            return survival
        with np.errstate(divide="ignore", invalid="ignore"):
            hazard = np.where(survival > 0, exact / survival, 0.0)
        return np.minimum(hazard, 1.0)

    def ip_and_max_remaining(
        self, fids: np.ndarray, now: int, exact: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The utility *Ip* and the drop-protection max-remaining
        probability for each function in ``fids``, at minute ``now``.

        Both follow the reference's offset ladder: never-seen → 0,
        offset ≤ 0 (arrival this minute) → 1, offset beyond the window →
        0, else the exact probability at the offset (*Ip*) / the maximum
        exact probability from the offset to the end of the window.
        """
        if exact is None:
            exact = self.exact_rows(fids)
        last = self.last_arrival[fids]
        offset = now - last
        window = self.window
        in_window = (last >= 0) & (offset >= 1) & (offset <= window)
        col = np.where(in_window, offset - 1, 0)
        rows = np.arange(len(fids))
        # The reference's probs[offset-1:].max(): probabilities are >= 0,
        # so zeroing the columns before the offset leaves the suffix max
        # (a max is order-free, so the values match exactly).
        suffix_max = np.where(
            np.arange(window) >= col[:, None], exact, 0.0
        ).max(axis=1)

        def ladder(hit: np.ndarray) -> np.ndarray:
            return np.where(
                last < 0,
                0.0,
                np.where(offset <= 0, 1.0, np.where(offset > window, 0.0, hit)),
            )

        return ladder(exact[rows, col]), ladder(suffix_max)


class RingSchedule:
    """The fleet's keep-alive entries over a rolling window of minutes.

    Entries only ever exist for minutes ``t .. t+K`` (the engine is at
    minute ``t``; plans reach at most K ahead), so the schedule is a ring
    of ``K+1`` columns: column ``m % (K+1)`` holds minute ``m``'s planned
    variant *level* per function (−1 = nothing planned). Alongside, a
    ``(column, footprint slot)`` count matrix mirrors
    :class:`KeepAliveSchedule`'s per-minute count ledger — the reducer
    folds a column in slot order to reproduce the canonical memory value
    exactly.
    """

    def __init__(self, tables: VariantTables, keep_alive_window: int):
        self.n_functions = n_functions = tables.fam_idx.size
        self.keep_alive_window = keep_alive_window
        self.n_cols = keep_alive_window + 1
        self.levels = np.full((n_functions, self.n_cols), -1, dtype=np.int8)
        self.cnt = np.zeros((self.n_cols, tables.n_slots), dtype=np.int64)
        self.slot_of = tables.slot_of
        self.fam = tables.fam_idx
        #: ``slot_of`` shifted one column right, with the sentinel slot
        #: ``n_slots`` (no entry) in column 0: the footprint slot of
        #: ``(family, level + 1)`` for levels −1 .. max.
        self.entry_slot = np.hstack((
            np.full((tables.slot_of.shape[0], 1), tables.n_slots),
            tables.slot_of,
        ))

    def begin_minute(self, minute: int) -> None:
        """Recycle the column that held minute ``minute - 1``: it now
        represents minute ``minute + K`` (the reference's ``advance``)."""
        if minute > 0:
            col = (minute - 1) % self.n_cols
            self.levels[:, col] = -1
            self.cnt[col, :] = 0

    def alive_levels(self, fids: np.ndarray, minute: int) -> np.ndarray:
        """Planned level at ``minute`` for each fid (−1 = absent)."""
        return self.levels[fids, minute % self.n_cols].astype(np.int64)

    def alive_fids(self, minute: int) -> np.ndarray:
        """Fids with an entry at ``minute``, ascending."""
        return np.flatnonzero(self.levels[:, minute % self.n_cols] >= 0)

    def mark_alive(self, fids: np.ndarray, minute: int, levels: np.ndarray) -> None:
        """Add entries at ``minute`` for fids known to have none (the
        engine's cold-start bookkeeping)."""
        if fids.size == 0:
            return
        col = minute % self.n_cols
        self.levels[fids, col] = levels
        self.cnt[col] += np.bincount(
            self.slot_of[self.fam[fids], levels], minlength=self.cnt.shape[1]
        )

    def _move_entries(
        self, fids: np.ndarray, cols: np.ndarray, old: np.ndarray,
        new: np.ndarray,
    ) -> None:
        """Move the ledger from entries ``old`` to ``new`` (levels, −1 =
        absent; one row per fid in ``fids``, one column per ring column
        in ``cols``) as one net delta: the ``bincount`` of the new
        entries' flat ``(column, slot)`` indices minus that of the old
        ones. Unchanged entries cancel; absent ones count in the
        sentinel slot, which is cut off."""
        stride = self.cnt.shape[1] + 1
        size = self.n_cols * stride
        row = (self.fam[fids] * self.entry_slot.shape[1] + 1)[:, None]
        at = cols * stride
        delta = np.bincount(
            (at + self.entry_slot.take(row + new)).ravel(), minlength=size
        ) - np.bincount(
            (at + self.entry_slot.take(row + old)).ravel(), minlength=size
        )
        self.cnt += delta.reshape(self.n_cols, stride)[:, :-1]

    def write_plans(
        self, fids: np.ndarray, minute: int, plan_levels: np.ndarray
    ) -> None:
        """Install plans for minutes ``minute+1 .. minute+W`` (one row per
        fid in ``fids``; level −1 clears the minute's entry).

        Equivalent to the reference's per-minute ``set_plan`` writes:
        each changed entry moves one integer count from its old
        footprint slot to its new one.
        """
        if fids.size == 0:
            return
        width = plan_levels.shape[1]
        cols = (minute + 1 + np.arange(width)) % self.n_cols
        rows = self.levels.take(fids, axis=0)
        old = rows[:, cols].astype(np.int64)
        self._move_entries(fids, cols, old, plan_levels)
        rows[:, cols] = plan_levels
        self.levels[fids] = rows

    def downgrade_many(
        self, fids: np.ndarray, n: np.ndarray, allow_drop: np.ndarray
    ) -> None:
        """Downgrade every entry of each ``fids[i]`` (unique) ``n[i]``
        times, as one batch — the schedule-layer semantics of
        ``n[i]`` successive ``KeepAliveSchedule.downgrade`` calls from
        the current minute on (the ring holds exactly minutes ``t ..
        t+K``).

        One downgrade moves a present entry one level down; at level 0
        it drops the entry (−1) when ``allow_drop[i]``, else leaves it.
        So an entry at level ``L`` ends at ``L - n`` when that is ≥ 0,
        and otherwise at −1 (drop allowed) or 0 (drop refused). Absent
        entries stay absent.
        """
        old = self.levels[fids].astype(np.int64)
        floor = np.where(allow_drop, -1, 0)[:, None]
        new = np.maximum(old - n[:, None], floor)
        new[old < 0] = -1
        self._move_entries(fids, np.arange(self.n_cols), old, new)
        self.levels[fids] = new
