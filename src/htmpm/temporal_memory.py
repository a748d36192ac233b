"""Temporal memory: per-cell sequence learning over active columns.

Cells are addressed flat as ``column * m_cells + i``. Distal segments live
in flat numpy arrays (one row per segment, fixed synapse width, padded with
a sentinel cell id) so the per-record predict and learning passes are
vectorized. Every allocated row has an owner, and ``seg_cell`` is the only
record of it: a cell's segments are its rows in row order, so every tie
among one cell's segments (best matching segment, least recently used
victim) goes to the lowest row. A cell at ``max_segments_per_cell``
replaces its least recently used segment in place, so no row is ever
freed. A step allocates all of its new segments in one batch
(``_allocate``, which ``create_segment`` also uses): the capacity grows,
by doubling, once, and the rows come out as one ``create_segment`` call
per winner cell would give them, in column order. Cell activity is held
only in arrays: a mask of active cells, the sorted winner cells, and the
predictive segment rows with their synapse counts. The queries derive
from them sorted, distinct intp arrays that the caller owns; only
``predictive_columns`` is a set, which the benchmark's tracer counts.

A cell becomes predictive when at least one of its segments has strictly
more than ``activation_threshold`` established synapses onto currently
active cells (permanence below the connect threshold counts as zero).
The predict pass counts only these established active synapses, for every
segment. Active columns with no predicted cell burst: every cell in the
column activates. A segment's matching synapses (onto the previous step's
active cells, any permanence) are counted only where they are read: for
the segments of the bursting columns, when their winners are chosen.
A bursting column's winner cell reuses its best matching segment only
when that segment has at least ``min(MIN_MATCH, sample_size)`` matching
synapses (htm.core's ``minThreshold``); otherwise the winner grows a new
segment. So a value that follows two different contexts gets one segment
per context, instead of one segment that both contexts pull back and
forth. The clamp to ``sample_size`` lets a segment that has just grown
its ``sample_size`` synapses match again.
``step`` reads the spatial pooler's active columns, a sorted, distinct
intp index array, without a copy, refuses one with a column outside
``[0, n_columns)`` (a ``DimensionError``: a negative index would wrap to
another column), and returns the raw anomaly score, the fraction of
active columns that burst (0 with no active column).

Learning is Hebbian with asymmetric rates: segments that correctly
predicted are reinforced (inc) and decayed (dec); segments that predicted
a column that never activated are punished at a strictly slower rate, so
forgetting is slower than updating.

The per-record cycle is fixed: activate from the previous step's
predictions, then learn, then compute the new predictions. Every step
learns.

Predictions are memoized. The new active cells are fixed by the active
columns and the predicted cells among them, so ``step`` keys a memo on
those two arrays' bytes; an entry holds the predictive rows and their
counts, read-only. The predict pass depends on nothing else but the
established synapses: the live ones at or above the connect threshold.
A free slot always holds permanence 0 (padding is written as 0, and a
synapse dies at 0), so an established synapse appears or vanishes only
where a stored float32 permanence crosses the threshold. That is the one
rule: the two synapse writers, ``_adjust`` (learning, every step) and
``_store`` (growth, a segment's reset when ``_allocate`` takes its row,
and ``create_segment``'s implant), compare the stored permanences before
and after and clear the memo when one crossed. A repeated input on a
stable memory (the healthy stretch of a periodic signal) skips the
predict pass; an input that never repeats misses, and pays for the
lookup and the crossing tests. At most ``MEMO_ENTRIES`` keys are kept,
oldest dropped first.

``state_dict`` exports the learned segments in a canonical order; the
package keeps no loader for it.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DimensionError, ValidationError
from .spatial_pooler import MEMO_ENTRIES, ColumnActivation

# htm.core's minThreshold: the fewest matching synapses that let a bursting
# cell reuse a segment instead of growing a new one
MIN_MATCH = 10


def _is_cell(value, n_cells: int) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and 0 <= value < n_cells)


class TemporalMemory:
    def __init__(
        self,
        n_columns: int,
        m_cells: int = 32,
        activation_threshold: int = 13,
        connect_threshold: float = 0.5,
        initial_permanence: float = 0.21,
        perm_inc: float = 0.1,
        perm_dec: float = 0.1,
        perm_punish: float = 0.01,
        sample_size: int = 20,
        max_segments_per_cell: int = 128,
        max_synapses_per_segment: int = 40,
    ):
        if n_columns <= 0 or m_cells <= 0:
            raise ValidationError("n_columns and m_cells must be positive")
        if activation_threshold < 0:
            raise ValidationError("activation_threshold must be >= 0")
        if min(perm_inc, perm_dec, perm_punish) < 0:
            raise ValidationError("learning rates must be non-negative")
        # forgetting must be strictly slower than updating (zero rates allowed
        # together, which disables learning entirely)
        if perm_punish >= perm_dec and not (perm_punish == 0 and perm_dec == 0):
            raise ValidationError(
                f"perm_punish ({perm_punish}) must be < perm_dec ({perm_dec})"
            )
        if sample_size <= 0 or max_synapses_per_segment < sample_size:
            raise ValidationError(
                "need 0 < sample_size <= max_synapses_per_segment"
            )
        # a segment predicts with strictly more than activation_threshold synapses
        if activation_threshold >= max_synapses_per_segment:
            raise ValidationError(f"activation_threshold ({activation_threshold}) must be < "
                                  f"max_synapses_per_segment ({max_synapses_per_segment})")
        if max_segments_per_cell < 1:
            raise ValidationError(
                f"max_segments_per_cell must be >= 1, got {max_segments_per_cell}"
            )
        if not 0.0 < initial_permanence <= 1.0:
            raise ValidationError(
                f"initial_permanence must be in (0, 1], got {initial_permanence}"
            )
        if not 0.0 < connect_threshold < 1.0:
            raise ValidationError(
                f"connect_threshold must be in (0, 1), got {connect_threshold}"
            )
        self.n_columns = n_columns
        self.m_cells = m_cells
        self.n_cells = n_columns * m_cells
        self.activation_threshold = activation_threshold
        self.connect_threshold = connect_threshold
        self.initial_permanence = initial_permanence
        self.perm_inc = perm_inc
        self.perm_dec = perm_dec
        self.perm_punish = perm_punish
        self.sample_size = sample_size
        self.max_segments_per_cell = max_segments_per_cell
        self.max_synapses_per_segment = max_synapses_per_segment

        self._sentinel = self.n_cells  # padding presyn id, never active
        cap = 256
        # intp, so that gathers through the cell masks need no index cast
        self.seg_presyn = np.zeros((cap, max_synapses_per_segment), dtype=np.intp)
        self.seg_perm = np.zeros((cap, max_synapses_per_segment), dtype=np.float32)
        self.seg_cell = np.zeros(cap, dtype=np.intp)  # owner cell, intp likewise
        self.seg_last_used = np.zeros(cap, dtype=np.int64)
        self._n_rows = 0  # rows 0 .. _n_rows - 1 are allocated, each owned
        self._step = 0
        # (active columns, predicted cells) bytes -> predictive rows, counts
        self._memo: dict[tuple[bytes, bytes], tuple] = {}
        # the smallest type that holds a segment's synapse count
        self._count_type = np.min_scalar_type(max_synapses_per_segment)
        self.reset()

    # ------------------------------------------------------------------
    # stepping

    def step(self, cols: ColumnActivation) -> float:
        """Run one full activate -> learn -> predict cycle and return the
        raw anomaly score: bursting columns / active columns, 0 with none.

        Eq.-(3) semantics: predicted cells of active columns activate;
        columns with no predicted cell burst. Activation and learning read
        the previous step's activity, which is replaced only afterwards.
        """
        columns = cols.active_columns
        if len(columns) and (columns[0] < 0 or columns[-1] >= self.n_columns):
            raise DimensionError(f"active columns {columns[0]}..{columns[-1]} outside "
                                 f"the memory's columns [0, {self.n_columns})")
        self._step += 1
        m = self.m_cells
        rows = self._active_rows  # the previous step's predictive segments
        owners = self.seg_cell[rows]
        col_mask = np.zeros(self.n_columns, dtype=bool)
        col_mask[columns] = True
        correct = col_mask[owners // m]  # predicted a cell of an active column
        predicted = owners[correct]
        key = (columns.tobytes(), predicted.tobytes())
        col_mask[predicted // m] = False  # now: the active columns that burst
        bursting = columns[col_mask[columns]]
        winners = self._predicted_winners(predicted, self._active_counts[correct])
        burst_winners, matching_rows, counts = self._burst_winners(bursting)
        self._learn(rows[correct], rows[~correct], burst_winners, matching_rows, counts)
        self._active_arr[:] = False
        self._active_arr[predicted] = True
        self._active_arr[:-1].reshape(self.n_columns, m)[bursting] = True
        self._winners = np.sort(np.concatenate([winners, burst_winners]))
        # looked up after learning, which clears the memo if it rewired
        memo = self._memo.get(key)
        if memo is None:
            self._compute_predictive()
            self._memo[key] = (self._active_rows, self._active_counts)
            if len(self._memo) > MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]
        else:
            self._active_rows, self._active_counts = memo
        return len(bursting) / len(columns) if len(columns) else 0.0

    def _predicted_winners(self, cells, strengths):
        """Per predicted column, the cell owning the segment with the most
        active synapses (cells[i] owns one with strengths[i]); ties go to
        the lowest cell."""
        columns = cells // self.m_cells
        order = np.lexsort((cells, -strengths, columns))
        cells, columns = cells[order], columns[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = columns[1:] != columns[:-1]
        return cells[first]

    def _burst_winners(self, bursting):
        """Per bursting column, the cell with the best matching segment; ties
        go to the cell with the fewest segments, then to the lowest index.
        Also returns each winner's best matching row (most matching synapses,
        ties to the lowest row), or -1 where none of its segments has at
        least min(MIN_MATCH, sample_size) of them, and each winner's number
        of segments. Matching synapses are live synapses onto the cells
        still marked active, the previous step's."""
        if not len(bursting):
            return bursting, bursting, bursting  # no winners
        m, n = self.m_cells, self._n_rows
        # a table of the bursting columns' cells, column by column
        first = np.arange(0, len(bursting) * m, m)
        slot = np.full(self.n_columns, -1)
        slot[bursting] = first
        owners = self.seg_cell[:n]
        entry = slot[owners // m]
        rows = np.flatnonzero(entry >= 0)
        entry = entry[rows] + owners[rows] % m  # each row's cell in the table
        match = self._active_arr[self.seg_presyn[rows]].sum(axis=1)
        # a row's matches, then its lowness, in one number: a cell's maximum
        # is its best match, ties to the lowest row (0 for a cell with none)
        span = n + 1
        best = np.zeros(len(bursting) * m, dtype=np.intp)
        np.maximum.at(best, entry, match * span + (n - rows))
        counts = np.bincount(entry, minlength=len(best))
        # most matches, then fewest segments; argmax ties to the lowest cell
        pick = (best // span * span - counts).reshape(-1, m).argmax(axis=1)
        won = first + pick
        best = best[won]
        matching_rows = np.where(best >= min(MIN_MATCH, self.sample_size) * span,
                                 n - best % span, -1)
        return bursting * m + pick, matching_rows, counts[won]

    def _learn(self, correct_rows, wrong_rows, burst_winners, matching_rows, counts):
        """(a) Segments that correctly predicted are reinforced; (b) segments
        that predicted a column that stayed silent are punished; (c) each
        bursting column's winner reinforces its best matching segment and
        grows it toward the previous winner cells, or gets a new segment
        grown toward them. counts: each winner's number of segments."""
        if self.perm_inc == 0 and self.perm_dec == 0 and self.perm_punish == 0:
            return
        prev_winners = self._winners
        reinforce, grow = correct_rows, ()
        if len(burst_winners):
            matched = matching_rows >= 0
            grow = matching_rows[matched]
            reinforce = np.concatenate([correct_rows, grow])
            # a winner with no matching segment gets a new one when there
            # are previous winners for it to grow onto; it grows after
            # _adjust, which never touches a bursting winner's replaced row
            if len(grow) < len(burst_winners) and len(prev_winners):
                lacking = ~matched
                new = self._allocate(burst_winners[lacking], counts[lacking])
                grow = np.concatenate([grow, new])
        self.seg_last_used[reinforce] = self._step
        rows = np.concatenate([reinforce, wrong_rows])
        presyn = self.seg_presyn[rows]
        delta = np.where(self._active_arr[presyn], self.perm_inc, -self.perm_dec)
        delta[len(reinforce):] = -self.perm_punish  # the wrong predictions
        self._adjust(rows, presyn, delta)
        if len(grow) and len(prev_winners):
            self._grow(grow, prev_winners)

    def _adjust(self, rows, presyn, delta):
        """Add delta to the slots of rows (whose presyn is given), clipped
        to [0, 1]; live synapses driven to zero are destroyed."""
        before = self.seg_perm[rows]
        # a free slot's presyn, the sentinel, is never active, so its delta
        # is never positive and its permanence 0 clips back to 0
        updated = before + delta  # float64
        np.clip(updated, 0.0, 1.0, out=updated)
        dead = (updated <= 0.0) & (presyn != self._sentinel)  # clipped to exactly 0.0
        if dead.any():
            presyn[dead] = self._sentinel
            self.seg_presyn[rows] = presyn
        stored = updated.astype(self.seg_perm.dtype)
        self.seg_perm[rows] = stored
        self._forget_if_crossed(before, stored)

    def _store(self, at, presyn, perm):
        """Write presyn and perm at rows, or at (rows, slots): every synapse
        write but learning's goes through here."""
        before = self.seg_perm[at].copy()  # a basic index gives a view
        self.seg_presyn[at] = presyn
        self.seg_perm[at] = perm
        self._forget_if_crossed(before, self.seg_perm[at])

    def _forget_if_crossed(self, before, after):
        """Forget the memoized predictions if a stored permanence crossed
        the connect threshold. Comparing the masks' bytes costs half of a
        reduction over them."""
        threshold = self.connect_threshold
        if (before >= threshold).tobytes() != (after >= threshold).tobytes():
            self._memo.clear()

    def _grow(self, rows, winners):
        """Give each row synapses onto the sorted winner cells it lacks,
        lowest cell first and skipping its own column, until it samples
        sample_size winners or has no free slot left."""
        presyn = self.seg_presyn[rows]
        pos = np.searchsorted(winners, presyn)
        found = winners.take(pos, mode="clip") == presyn
        free = presyn == self._sentinel
        budget = np.minimum(self.sample_size - found.sum(axis=1), free.sum(axis=1))
        if budget.max() <= 0:
            return  # every row samples enough winners or is full
        has = np.zeros((len(rows), len(winners)), dtype=bool)
        has[found.nonzero()[0], pos[found]] = True
        new = ~has & (winners // self.m_cells != self.seg_cell[rows, None] // self.m_cells)
        rank = np.cumsum(new, axis=1) - 1
        take_row, take_winner = np.nonzero(new & (rank < budget[:, None]))
        # the t-th synapse a row gains goes into its t-th free slot
        free_slots = np.argsort(~free, axis=1, kind="stable")
        self._store((rows[take_row], free_slots[take_row, rank[take_row, take_winner]]),
                    winners[take_winner], self.initial_permanence)

    def _compute_predictive(self):
        """Eq.-(2) semantics over the current active cells. Strict '>':
        a segment with exactly threshold established active synapses does
        not predict."""
        n = self._n_rows
        act = self._active_arr[self.seg_presyn[:n]]
        act &= self.seg_perm[:n] >= self.connect_threshold
        # einsum sums each row's bytes in the narrow count type, several
        # times faster than count_nonzero; intp, because the predicted
        # winners sort on the negated counts
        counts = np.einsum("ij->i", act.view(np.uint8), dtype=self._count_type)
        self._active_rows = (counts > self.activation_threshold).nonzero()[0]
        # each predictive row's count, in the order of _active_rows
        self._active_counts = counts[self._active_rows].astype(np.intp)
        self._active_rows.setflags(write=False)
        self._active_counts.setflags(write=False)

    # ------------------------------------------------------------------
    # segment bookkeeping

    def segments_of(self, cell: int) -> np.ndarray:
        """Row ids of a cell's segments, in row order."""
        return np.flatnonzero(self.seg_cell[:self._n_rows] == cell)

    def create_segment(self, cell: int, synapses: dict[int, float] | None = None) -> int:
        """Attach a new segment to a cell. At the per-cell cap the new
        segment replaces the cell's least recently used one (ties to the
        lowest row) in its row. Returns the segment's row id. Also used to
        implant segments in tests."""
        if not _is_cell(cell, self.n_cells):
            raise ValidationError(f"cell {cell!r} outside [0, {self.n_cells}) "
                                  "or not an integer")
        if synapses:
            if len(synapses) > self.max_synapses_per_segment:
                raise ValidationError("too many synapses for one segment")
            outside = [p for p in synapses if not _is_cell(p, self.n_cells)]
            if outside:
                raise ValidationError(f"presynaptic cell(s) {outside} outside "
                                      f"[0, {self.n_cells}) or not integers")
            # a bool, nan or infinity is no permanence
            invalid = [q for q in synapses.values()
                       if isinstance(q, bool) or not isinstance(q, numbers.Real)
                       or not 0.0 <= q <= 1.0]
            if invalid:
                raise ValidationError(f"permanence(s) {invalid} outside [0, 1]")
        row = int(self._allocate(np.array([cell]), np.array([len(self.segments_of(cell))]))[0])
        if synapses:
            presyn, perm = zip(*sorted(synapses.items()))
            self._store((row, slice(len(presyn))), presyn, perm)
        return row

    def _allocate(self, cells, counts):
        """Give each of one or more distinct cells (with counts segments
        each) a new, empty segment and return their rows: the rows
        create_segment would give them one cell at a time, in order. A cell
        below max_segments_per_cell takes the next unallocated row; a cell
        at it replaces its least recently used segment (ties to the lowest
        row) in place."""
        fresh = counts < self.max_segments_per_cell
        taken = np.cumsum(fresh)  # fresh rows taken so far
        rows = taken + (self._n_rows - 1)
        for i in np.flatnonzero(~fresh).tolist():
            mine = self.segments_of(int(cells[i]))
            rows[i] = mine[int(np.argmin(self.seg_last_used[mine]))]
        self._n_rows += int(taken[-1])
        while self._n_rows > len(self.seg_cell):
            self._grow_capacity()
        self._store(rows, self._sentinel, 0.0)
        self.seg_cell[rows] = cells
        self.seg_last_used[rows] = self._step
        return rows

    def _grow_capacity(self):
        """Double the row capacity. Rows from _n_rows on are never read:
        _allocate writes every field of a row it takes."""
        # one array at a time, so that one old array at most outlives its copy
        for name in ("seg_presyn", "seg_perm", "seg_cell", "seg_last_used"):
            rows = getattr(self, name)
            setattr(self, name, np.concatenate([rows, np.zeros_like(rows)]))

    def synapses_of(self, row: int) -> dict[int, float]:
        """Live synapses of one segment as {presynaptic cell: permanence}."""
        presyn = self.seg_presyn[row]
        live = presyn != self._sentinel
        return {
            int(p): float(q)
            for p, q in zip(presyn[live], self.seg_perm[row][live])
        }

    # ------------------------------------------------------------------
    # queries

    @property
    def active_cells(self) -> np.ndarray:
        return np.flatnonzero(self._active_arr)

    @property
    def winner_cells(self) -> np.ndarray:
        return self._winners.copy()

    @property
    def predictive_cells(self) -> np.ndarray:
        return np.unique(self.seg_cell[self._active_rows])

    @property
    def predictive_columns(self) -> set[int]:
        return set((self.seg_cell[self._active_rows] // self.m_cells).tolist())

    def segment_count(self) -> int:
        return self._n_rows

    def reset(self) -> None:
        """Sequence boundary: clear activity but keep everything learned."""
        self._active_arr = np.zeros(self.n_cells + 1, dtype=bool)
        self._winners = np.empty(0, dtype=np.intp)
        self._active_rows = np.empty(0, dtype=np.intp)
        self._active_counts = np.empty(0, dtype=np.intp)

    # ------------------------------------------------------------------
    # serialization

    def state_dict(self) -> dict:
        owners = self.seg_cell[:self._n_rows]
        return {
            "params": {
                "n_columns": self.n_columns,
                "m_cells": self.m_cells,
                "activation_threshold": self.activation_threshold,
                "connect_threshold": self.connect_threshold,
                "initial_permanence": self.initial_permanence,
                "perm_inc": self.perm_inc,
                "perm_dec": self.perm_dec,
                "perm_punish": self.perm_punish,
                "sample_size": self.sample_size,
                "max_segments_per_cell": self.max_segments_per_cell,
                "max_synapses_per_segment": self.max_synapses_per_segment,
            },
            "segments": [
                [int(owners[row]), sorted(self.synapses_of(row).items())]
                for row in np.argsort(owners, kind="stable")
            ],
        }
