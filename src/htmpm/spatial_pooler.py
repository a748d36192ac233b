"""Spatial pooler: maps encoder SDRs to a sparse set of active columns.

Each column owns a proximal synapse set drawn from a random potential pool
covering half the input by default. A column's score is the count of its
connected synapses that land on active input bits; the top ``k_active``
columns by score win, with ties broken by lowest column index. Hebbian
learning nudges permanences of active columns toward the current input, by
``perm_inc`` up and ``perm_dec`` down.

Layout. Only the pool is stored. ``pool[c]`` holds column c's sorted input
indices (``n_columns x pool_size``, in the smallest unsigned type that fits)
and ``permanences[c, j]`` is the permanence of the synapse onto input
``pool[c, j]``. With ``potential_fraction=1.0`` the pool is every input in
order, so this layout is the dense ``n_columns x n_input`` one.

Connections are derived. ``_connected_t[i, c]`` is 1 when column c has a
synapse onto input i at or above the connect threshold. It is transposed
so that the overlap is the sum of the active inputs' rows. Learning
rewrites only the entries whose permanence crossed the threshold, found by
comparing the rows' permanences before and after; ``rebuild_connections``
derives the whole matrix again after a direct edit of ``permanences``.

Permanences stay float64: float32 rounds the ``+inc``/``-dec`` steps
differently, which moves some synapses across the threshold at other
records and so changes the scores.

Inputs and outputs are index arrays. ``compute`` takes the encoder's
sorted, distinct active input indices and gathers their rows of
``_connected_t``; its ``ColumnActivation`` carries the winning columns as
a read-only, sorted intp array (empty for an empty input). Only
``compute``, which hands ``learn_proximal`` the array, and the temporal
memory's ``step`` open the holder.

Winners are memoized. ``compute`` keys a memo on the input's bytes; an
entry is the input's ``ColumnActivation``, whose columns are read-only,
because the temporal memory reads them without a copy. Scores depend only
on ``_connected_t``, so an entry stays valid until a connection changes:
learning clears the memo when it flips an entry of ``_connected_t``, and
``rebuild_connections`` clears it. A repeated input (a value back in a
bucket the encoder gave before, as on the healthy stretch of a periodic
signal or in noise narrower than the encoder's resolution) skips the
overlap and the top-k. Learning still runs on every step and is not
memoized: keeping each entry's pool rows and increments too (80 kB at the
default size) saved 2% on the benchmark's staircase and cost 6% on its
degradation stream, measured under the former contiguous block encoder,
whose inputs there rarely repeated. At most ``MEMO_ENTRIES``
inputs are kept, oldest dropped first.

The pool is drawn once per process. ``_pool_draw`` caches the last draw
by ``(n_input, n_columns, pool_size, seed)``: a read-only pool array
shared by every pooler built with those values, and the generator state
after the pool draws, from which each pooler draws its own permanences.
So a run over many files pays for the ``n_columns`` pool draws once, and
each file still starts from the same permanences as a fresh process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError

# values per uniform draw in __init__: row chunks of the n_columns x n_input
# draw give the same stream as one draw, without holding the whole matrix
_DRAW_CHUNK = 1 << 14

# the most entries one memo keeps, here and in the temporal memory; on the
# benchmark's HTM workloads the largest held 9 inputs here and 24 keys there
MEMO_ENTRIES = 64


@dataclass(frozen=True, eq=False)  # == on an array field has no single truth value
class ColumnActivation:
    """Result of one inhibition round: the winning columns as a read-only,
    sorted intp array. The holder is kept only because the benchmark's
    tracer reads ``.active_columns`` of the pooler's result and of the
    temporal memory's argument."""

    active_columns: np.ndarray


# the activation of an empty input
_NO_COLUMNS = np.empty(0, dtype=np.intp)
_NO_COLUMNS.setflags(write=False)


@functools.lru_cache(maxsize=1)
def _pool_draw(n_input: int, n_columns: int, pool_size: int, seed: int):
    """Each column's sorted pool of ``pool_size`` distinct inputs, drawn
    from ``default_rng(seed)``, and the generator state after the draws.
    The pool is read-only, because every pooler built with these values
    shares it."""
    rng = np.random.default_rng(seed)
    pool = np.empty((n_columns, pool_size), dtype=np.min_scalar_type(n_input - 1))
    for c in range(n_columns):
        pool[c] = rng.choice(n_input, size=pool_size, replace=False)
    pool.sort(axis=1)
    pool.flags.writeable = False
    return pool, rng.bit_generator.state


class SpatialPooler:
    """Stateful proximal-synapse pool over a fixed input size.

    Single writer during learning; compute() without learning changes no
    learned state, only the memo of winners.
    """

    def __init__(
        self,
        n_input: int,
        n_columns: int = 2048,
        k_active: int = 40,
        potential_fraction: float = 0.5,
        connect_threshold: float = 0.5,
        perm_inc: float = 0.05,
        perm_dec: float = 0.008,
        seed: int = 0,
    ):
        if n_input <= 0 or n_columns <= 0:
            raise ValidationError("n_input and n_columns must be positive")
        if not 0 < k_active <= n_columns:
            raise ValidationError(f"need 0 < k <= n_columns, got k={k_active}")
        if not 0.0 < potential_fraction <= 1.0:
            raise ValidationError("potential_fraction must be in (0, 1]")
        if not 0.0 < connect_threshold < 1.0:
            raise ValidationError("connect_threshold must be in (0, 1)")
        if perm_inc < 0 or perm_dec < 0:
            raise ValidationError("learning rates must be non-negative")
        self.n_input = n_input
        self.n_columns = n_columns
        self.k_active = k_active
        self.connect_threshold = connect_threshold
        self.perm_inc = perm_inc
        self.perm_dec = perm_dec

        pool_size = max(1, int(round(potential_fraction * n_input)))
        self.pool, state = _pool_draw(n_input, n_columns, pool_size, seed)
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        # permanences start uniformly around the connect threshold, so about
        # half the pool is connected before any learning; the uniform draw
        # covers every input, and only the pool's entries are kept
        self.permanences = np.empty((n_columns, pool_size), dtype=np.float64)
        rows = max(1, _DRAW_CHUNK // n_input)
        for start in range(0, n_columns, rows):
            drawn = rng.uniform(connect_threshold - 0.1, connect_threshold + 0.1,
                                size=(min(rows, n_columns - start), n_input))
            self.permanences[start:start + rows] = np.take_along_axis(
                drawn, self.pool[start:start + rows], axis=1)
        self._columns = np.arange(n_columns)[:, None]
        self._memo: dict[bytes, ColumnActivation] = {}  # input bytes -> winners
        self.rebuild_connections()

    def rebuild_connections(self) -> None:
        """Derive the connection matrix from ``permanences`` in full, and
        forget the memoized winners."""
        self._connected_t = np.zeros((self.n_input, self.n_columns), dtype=np.uint8)
        self._connected_t[self.pool, self._columns] = (
            self.permanences >= self.connect_threshold)
        self._memo.clear()

    @property
    def connected(self) -> np.ndarray:
        """Connection state in the pool layout of ``permanences``."""
        return self._connected_t[self.pool, self._columns].astype(bool)

    def compute(self, active: np.ndarray, learn: bool = True) -> ColumnActivation:
        """One inhibition round over the sorted, distinct active input
        indices: the top ``k_active`` columns by score, ties to the lowest
        index; optionally apply proximal learning."""
        active = np.asarray(active, dtype=np.intp)
        if not len(active):
            return ColumnActivation(_NO_COLUMNS)
        key = active.tobytes()
        activation = self._memo.get(key)
        if activation is None:
            activation = self._memo[key] = self._inhibit(active)
            if len(self._memo) > MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]
        if learn:
            self.learn_proximal(active, activation.active_columns)
        return activation

    def _inhibit(self, active) -> ColumnActivation:
        """The winners of an input, as read-only columns."""
        if active[0] < 0 or active[-1] >= self.n_input:
            raise DimensionError(
                f"input bits {active[0]}..{active[-1]} outside the pooler's "
                f"input [0, {self.n_input})"
            )
        # a score is at most the number of active bits
        scores = self._connected_t[active].sum(
            axis=0, dtype=np.min_scalar_type(len(active)))
        # the scores are unsigned, so ~scores ranks the highest first, and a
        # stable sort gives tied columns to the lowest index
        top_idx = np.argsort(~scores, kind="stable")[:self.k_active]
        cols = np.sort(top_idx[scores[top_idx] > 0])
        cols.setflags(write=False)
        return ColumnActivation(cols)

    def learn_proximal(self, active: np.ndarray, cols: np.ndarray) -> None:
        """Reinforce the winning columns toward the input: pool synapses on
        the active input indices gain ``perm_inc``, the rest of the pool
        loses ``perm_dec``."""
        if not len(cols):
            return
        delta = np.full(self.n_input, -self.perm_dec)
        delta[active] = self.perm_inc
        pool = self.pool[cols]
        before = self.permanences[cols]
        after = before + delta.take(pool)
        after.clip(0.0, 1.0, out=after)
        self.permanences[cols] = after
        now = after >= self.connect_threshold
        crossed = now != (before >= self.connect_threshold)
        # on 6% of htm_staircase steps and 54% of htm_degradation steps
        if crossed.any():
            flips = np.flatnonzero(crossed)
            self._connected_t[pool.ravel()[flips], cols[flips // pool.shape[1]]] = (
                now.ravel()[flips])
            self._memo.clear()
