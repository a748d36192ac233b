"""Temporal memory: per-cell sequence learning over active columns.

Cells are addressed flat as ``column * m_cells + i``. Distal segments live
in flat numpy arrays (one row per segment, fixed synapse width, padded with
a sentinel cell id) so the per-record predict and learning passes are
vectorized. ``seg_cell`` is the only record of which cell owns a segment
(-1 marks a free row): a cell's segments are its rows in row order, so
every tie among one cell's segments (best matching segment, least
recently used victim) goes to the lowest row. Cell activity is held only
in arrays: a mask of active cells, the sorted winner cells, and the
predictive segment rows with their synapse counts; the cell and column
sets the queries return are derived from them.

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
``step`` reads the spatial pooler's active columns, a sorted intp index
array, without a copy, and returns the raw anomaly score, the fraction of
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
connections: which live synapses sit at or above the connect threshold,
onto which cells. Those change only where a stored float32 permanence
crosses the threshold, so ``_rewired`` compares stored permanences
before and after each change and clears the memo when one crossed:
in ``_adjust`` (learning and synapse death), ``_grow`` (only when
``initial_permanence`` is itself connected), ``create_segment`` with
synapses, and ``destroy_segment``. A repeated input on a stable memory
(the healthy stretch of a periodic signal) skips the predict pass; an
input that never repeats misses, and pays for the lookup and the
crossing tests. At most
``MEMO_ENTRIES`` keys are kept, oldest dropped first.

``state_dict`` exports the learned segments in a canonical order; the
package keeps no loader for it.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .spatial_pooler import MEMO_ENTRIES, ColumnActivation

# htm.core's minThreshold: the fewest matching synapses that let a bursting
# cell reuse a segment instead of growing a new one
MIN_MATCH = 10


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
        self.seg_presyn = np.full((cap, max_synapses_per_segment),
                                  self._sentinel, dtype=np.intp)
        self.seg_perm = np.zeros((cap, max_synapses_per_segment), dtype=np.float32)
        self.seg_cell = np.full(cap, -1, dtype=np.int32)  # owner cell, -1 = free row
        self.seg_last_used = np.zeros(cap, dtype=np.int64)
        self._n_rows = 0               # high-water mark of allocated rows
        self._free_rows: list[int] = []
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
        self._step += 1
        m = self.m_cells
        columns = np.asarray(cols.active_columns, dtype=np.intp)
        rows = self._active_rows  # the previous step's predictive segments
        owners = self.seg_cell[rows]
        # a mask over columns, plus a spare last entry that stays False for
        # the column -1 that a free row's owner -1 maps to
        col_mask = np.zeros(self.n_columns + 1, dtype=bool)
        col_mask[columns] = True
        correct = col_mask[owners // m]  # predicted a cell of an active column
        predicted = owners[correct]
        key = (columns.tobytes(), predicted.tobytes())
        col_mask[predicted // m] = False  # now: the active columns that burst
        bursting = columns[col_mask[columns]]
        winners = self._predicted_winners(predicted, self._active_counts[correct])
        burst_winners, matching_rows = self._burst_winners(bursting)
        self._learn(rows[correct], rows[~correct], burst_winners, matching_rows)
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
        least min(MIN_MATCH, sample_size) of them. Matching synapses are live
        synapses onto the cells still marked active, the previous step's."""
        if not len(bursting):
            return bursting, bursting  # no winners, no matching rows
        m = self.m_cells
        slot = np.full(self.n_columns + 1, -1)  # bursting column -> table row
        slot[bursting] = np.arange(len(bursting))
        owners = self.seg_cell[:self._n_rows]
        rows = np.flatnonzero(slot[owners // m] >= 0)
        cells = owners[rows]
        match = np.count_nonzero(self._active_arr[self.seg_presyn[rows]], axis=1)
        b, i = slot[cells // m], cells % m
        best = np.zeros((len(bursting), m), dtype=np.int64)
        np.maximum.at(best, (b, i), match)
        n_segs = np.zeros((len(bursting), m), dtype=np.int64)
        np.add.at(n_segs, (b, i), 1)
        top = best == best.max(axis=1, keepdims=True)
        pick = np.where(top, n_segs, np.iinfo(np.int64).max).argmin(axis=1)
        is_best = ((i == pick[b]) & (match == best[b, i])
                   & (match >= min(MIN_MATCH, self.sample_size)))
        # rows ascend, so each column's first occurrence is its lowest row
        found, first = np.unique(b[is_best], return_index=True)
        matching_rows = np.full(len(bursting), -1)
        matching_rows[found] = rows[is_best][first]
        return bursting * m + pick, matching_rows

    def _learn(self, correct_rows, wrong_rows, burst_winners, matching_rows):
        """(a) Segments that correctly predicted are reinforced; (b) segments
        that predicted a column that stayed silent are punished; (c) each
        bursting column's winner reinforces its best matching segment, or
        gets a new one, and grows it toward the previous winner cells."""
        if self.perm_inc == 0 and self.perm_dec == 0 and self.perm_punish == 0:
            return
        prev_winners = self._winners
        reinforce, growing = correct_rows, ()
        if len(burst_winners):
            grow = matching_rows[matching_rows >= 0]
            # a winner with no matching segment gets a new one when there
            # are previous winners for it to grow onto
            lacking = burst_winners[matching_rows < 0] if len(prev_winners) else []
            new = np.array([self.create_segment(int(c)) for c in lacking], dtype=np.int64)
            reinforce = np.concatenate([correct_rows, grow])
            growing = np.concatenate([grow, new])
        self.seg_last_used[reinforce] = self._step
        # gathered after create_segment, which may have evicted and reused rows
        rows = np.concatenate([reinforce, wrong_rows])
        presyn = self.seg_presyn[rows]
        delta = np.where(self._active_arr[presyn], self.perm_inc, -self.perm_dec)
        delta[len(reinforce):] = -self.perm_punish  # the wrong predictions
        self._adjust(rows, presyn, delta)
        if len(growing) and len(prev_winners):
            self._grow(growing, prev_winners)

    def _adjust(self, rows, presyn, delta):
        """Add delta to the live synapses of rows (whose presyn is given),
        clipped to [0, 1]; synapses driven to zero are destroyed."""
        live = presyn != self._sentinel
        before = self.seg_perm[rows]
        updated = before + np.where(live, delta, 0.0)  # float64
        np.clip(updated, 0.0, 1.0, out=updated)
        dead = live & (updated <= 0.0)  # clipped to exactly 0.0
        if dead.any():
            presyn[dead] = self._sentinel
            self.seg_presyn[rows] = presyn
        stored = updated.astype(self.seg_perm.dtype)
        self.seg_perm[rows] = stored
        self._rewired(before, stored)

    def _grow(self, rows, winners):
        """Give each row synapses onto the sorted winner cells it lacks,
        lowest cell first and skipping its own column, until it samples
        sample_size winners or has no free slot left."""
        presyn = self.seg_presyn[rows]
        pos = np.minimum(np.searchsorted(winners, presyn), len(winners) - 1)
        found = winners[pos] == presyn
        has = np.zeros((len(rows), len(winners)), dtype=bool)
        has[np.nonzero(found)[0], pos[found]] = True
        own_col = self.seg_cell[rows] // self.m_cells
        new = ~has & (winners // self.m_cells != own_col[:, None])
        free = presyn == self._sentinel
        budget = np.minimum(self.sample_size - has.sum(axis=1), free.sum(axis=1))
        rank = np.cumsum(new, axis=1) - 1
        take_row, take_winner = np.nonzero(new & (rank < budget[:, None]))
        # the t-th synapse a row gains goes into its t-th free slot
        free_slots = np.argsort(~free, axis=1, kind="stable")
        slots = free_slots[take_row, rank[take_row, take_winner]]
        targets = rows[take_row], slots
        before = self.seg_perm[targets]
        self.seg_presyn[targets] = winners[take_winner]
        self.seg_perm[targets] = self.initial_permanence
        if len(take_row):
            self._rewired(before, self.seg_perm[targets])

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

    def _rewired(self, before, after) -> None:
        """Forget the memoized predictions if a stored permanence moved
        from ``before`` to ``after`` (arrays of one shape) across the
        connect threshold: the one test of whether the connections
        changed."""
        threshold = self.connect_threshold
        # comparing the masks' bytes costs half of a reduction over them
        if (before >= threshold).tobytes() != (after >= threshold).tobytes():
            self._memo.clear()

    # ------------------------------------------------------------------
    # segment bookkeeping

    def segments_of(self, cell: int) -> list[int]:
        """Row ids of a cell's segments, in row order."""
        return np.flatnonzero(self.seg_cell[:self._n_rows] == cell).tolist()

    def create_segment(self, cell: int, synapses: dict[int, float] | None = None) -> int:
        """Attach a new segment to a cell, evicting the least recently used
        one (ties to the lowest row) when the per-cell cap is reached.
        Returns the segment's row id. Also used to implant segments in
        tests."""
        if not 0 <= cell < self.n_cells:
            raise ValidationError(f"cell {cell} outside [0, {self.n_cells})")
        if synapses:
            if len(synapses) > self.max_synapses_per_segment:
                raise ValidationError("too many synapses for one segment")
            outside = sorted(p for p in synapses if not 0 <= p < self.n_cells)
            if outside:
                raise ValidationError(
                    f"presynaptic cell(s) {outside} outside [0, {self.n_cells})"
                )
        rows = self.segments_of(cell)
        if len(rows) >= self.max_segments_per_cell:
            self.destroy_segment(rows[int(np.argmin(self.seg_last_used[rows]))])
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            if self._n_rows == len(self.seg_cell):
                self._grow_capacity()
            row = self._n_rows
            self._n_rows += 1
        self.seg_presyn[row] = self._sentinel
        self.seg_perm[row] = 0.0
        self.seg_cell[row] = cell
        self.seg_last_used[row] = self._step
        if synapses:
            before = self.seg_perm[row].copy()
            for i, (presyn, perm) in enumerate(sorted(synapses.items())):
                self.seg_presyn[row, i] = presyn
                self.seg_perm[row, i] = perm
            self._rewired(before, self.seg_perm[row])
        return row

    def destroy_segment(self, row: int) -> None:
        if self.seg_cell[row] < 0:
            raise ValidationError(f"segment row {row} is not in use")
        before = self.seg_perm[row].copy()
        self.seg_cell[row] = -1
        self.seg_presyn[row] = self._sentinel
        self.seg_perm[row] = 0.0
        self._rewired(before, self.seg_perm[row])
        self._free_rows.append(row)

    def _grow_capacity(self):
        cap = len(self.seg_cell)
        pad = cap
        self.seg_presyn = np.vstack([
            self.seg_presyn,
            np.full((pad, self.max_synapses_per_segment), self._sentinel, dtype=np.intp),
        ])
        self.seg_perm = np.vstack([
            self.seg_perm,
            np.zeros((pad, self.max_synapses_per_segment), dtype=np.float32),
        ])
        self.seg_cell = np.concatenate([self.seg_cell, np.full(pad, -1, dtype=np.int32)])
        self.seg_last_used = np.concatenate([self.seg_last_used, np.zeros(pad, dtype=np.int64)])

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

    def _predictive(self) -> np.ndarray:
        """Owners of the predictive segments; a row freed since is skipped."""
        cells = self.seg_cell[self._active_rows]
        return cells[cells >= 0]

    @property
    def active_cells(self) -> set[int]:
        return set(np.flatnonzero(self._active_arr).tolist())

    @property
    def winner_cells(self) -> set[int]:
        return set(self._winners.tolist())

    @property
    def predictive_cells(self) -> set[int]:
        return set(self._predictive().tolist())

    @property
    def predictive_columns(self) -> set[int]:
        return set((self._predictive() // self.m_cells).tolist())

    def segment_count(self) -> int:
        return int(np.count_nonzero(self.seg_cell[:self._n_rows] >= 0))

    def reset(self) -> None:
        """Sequence boundary: clear activity but keep everything learned."""
        self._active_arr = np.zeros(self.n_cells + 1, dtype=bool)
        self._winners = np.empty(0, dtype=np.int64)
        self._active_rows = np.empty(0, dtype=np.int64)
        self._active_counts = np.empty(0, dtype=np.intp)

    # ------------------------------------------------------------------
    # serialization

    def state_dict(self) -> dict:
        live = np.flatnonzero(self.seg_cell[:self._n_rows] >= 0)
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
                [int(self.seg_cell[row]), sorted(self.synapses_of(row).items())]
                for row in live[np.argsort(self.seg_cell[live], kind="stable")]
            ],
        }
