"""Spatial pooler: maps encoder SDRs to a sparse set of active columns.

Each column owns a proximal synapse set drawn from a random potential pool
covering half the input by default. A column's score is the count of its
connected synapses that land on active input bits; the top-k columns by
score win, with ties broken by lowest column index. Hebbian learning nudges
permanences of active columns toward the current input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .sdr import Sdr


@dataclass(frozen=True)
class ColumnActivation:
    """Result of one inhibition round: the winning column indices."""

    active_columns: tuple[int, ...]
    n_columns: int
    k: int

    def __post_init__(self):
        if len(self.active_columns) > self.k:
            raise ValidationError("more active columns than k")
        if self.active_columns and max(self.active_columns) >= self.n_columns:
            raise ValidationError("column index out of range")


class SpatialPooler:
    """Stateful proximal-synapse pool over a fixed input size.

    Single writer during learning; compute() without learning is read-only.
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
        self.n_input = n_input
        self.n_columns = n_columns
        self.k_active = k_active
        self.connect_threshold = connect_threshold
        self.perm_inc = perm_inc
        self.perm_dec = perm_dec

        rng = np.random.default_rng(seed)
        pool_size = max(1, int(round(potential_fraction * n_input)))
        self.potential = np.zeros((n_columns, n_input), dtype=bool)
        for c in range(n_columns):
            self.potential[c, rng.choice(n_input, size=pool_size, replace=False)] = True
        # permanences start uniformly around the connect threshold, so about
        # half the potential pool is connected before any learning
        self.permanences = np.where(
            self.potential,
            rng.uniform(connect_threshold - 0.1, connect_threshold + 0.1,
                        size=(n_columns, n_input)),
            0.0,
        ).astype(np.float64)
        self._connected = self.permanences >= self.connect_threshold
        # composite ranking key: higher score wins, ties go to lower index
        self._tiebreak = np.arange(n_columns, 0, -1, dtype=np.int64)

    @property
    def connected(self) -> np.ndarray:
        return self._connected

    def compute(self, x: Sdr, learn: bool = True) -> ColumnActivation:
        """One inhibition round; optionally apply proximal learning."""
        activation = self.compute_columns(x, self.k_active)
        if learn:
            self.learn_proximal(x, activation)
        return activation

    def compute_columns(self, x: Sdr, k: int) -> ColumnActivation:
        if x.size_n != self.n_input:
            raise DimensionError(
                f"input SDR size {x.size_n} != pooler input size {self.n_input}"
            )
        if not 0 < k <= self.n_columns:
            raise ValidationError(f"need 0 < k <= n_columns, got k={k}")
        bits = np.fromiter(x.active, dtype=np.int64, count=len(x.active))
        if bits.size == 0:
            return ColumnActivation((), self.n_columns, k)
        scores = self._connected[:, bits].sum(axis=1, dtype=np.int64)
        # top-k with lowest-index tie-break via a composite integer key
        key = scores * (self.n_columns + 1) + self._tiebreak
        if k < self.n_columns:
            top_idx = np.argpartition(key, self.n_columns - k)[self.n_columns - k:]
        else:
            top_idx = np.arange(self.n_columns)
        top = [int(c) for c in top_idx if scores[c] > 0]
        return ColumnActivation(tuple(sorted(top)), self.n_columns, k)

    def learn_proximal(self, x: Sdr, activated: ColumnActivation,
                       inc: float | None = None, dec: float | None = None) -> None:
        """Reinforce active columns toward the input: potential synapses on
        active bits gain ``inc``, the rest of the pool loses ``dec``."""
        inc = self.perm_inc if inc is None else inc
        dec = self.perm_dec if dec is None else dec
        if inc < 0 or dec < 0:
            raise ValidationError("learning rates must be non-negative")
        if not activated.active_columns:
            return
        cols = np.fromiter(activated.active_columns, dtype=np.int64)
        active_mask = np.zeros(self.n_input, dtype=bool)
        active_mask[list(x.active)] = True
        pool = self.potential[cols]
        delta = np.where(active_mask, inc, -dec)
        updated = np.clip(
            self.permanences[cols] + np.where(pool, delta, 0.0), 0.0, 1.0
        )
        self.permanences[cols] = updated
        self._connected[cols] = updated >= self.connect_threshold
