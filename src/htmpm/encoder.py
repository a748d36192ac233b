"""Scalar-to-SDR encoder.

Classic contiguous-block encoder: the input range is divided into
overlapping buckets and each value lights a block of w_active adjacent
bits. Nearby values share bits, so semantic similarity becomes overlap.
A value outside [value_min, value_max] encodes as the nearer edge.
Stateless and deterministic.

``encode`` returns the active bits as a sorted int index array, the form
every layer of the HTM pipeline reads: the spatial pooler gathers its
connection rows with it, and its own output is again an index array that
the temporal memory reads. ``sdr.Sdr`` stays the type of the SDR-math API.
Every bucket's block is a read-only row of one table per
``(n_bits, w_active)``, built on first use, so ``encode`` makes no array.

``encode`` runs once per record, so it is straight-line float code: two
compares clip the value and ``n_buckets`` is read once. The bucket comes
from the same IEEE operations in the same order as the formula in its
docstring, so every value lands in the same block as by the formula
(``tests/test_encoder.py`` keeps the formula as the oracle).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ValidationError

# the HTM detector's encoder size: n_bits and w_active when none are given
N_BITS = 400
W_ACTIVE = 21
# the share of the training range added on each side by calibrated_config
MARGIN = 0.10


@dataclass(frozen=True)
class ScalarEncoderConfig:
    n_bits: int
    w_active: int
    value_min: float
    value_max: float

    def __post_init__(self):
        if self.w_active <= 0 or self.n_bits <= 0:
            raise ValidationError("n_bits and w_active must be positive")
        if self.w_active >= self.n_bits:
            raise ValidationError(
                f"w_active ({self.w_active}) must be < n_bits ({self.n_bits})"
            )
        if self.w_active % 2 == 0:
            raise ValidationError(f"w_active must be odd, got {self.w_active}")
        if not self.value_min < self.value_max:
            raise ValidationError(
                f"need value_min < value_max, got [{self.value_min}, {self.value_max}]"
            )
        # an infinite width would encode every finite value to bucket 0
        if not math.isfinite(self.value_max - self.value_min):
            raise ValidationError(
                f"value_max - value_min must be finite, got "
                f"[{self.value_min}, {self.value_max}]"
            )

    @property
    def n_buckets(self) -> int:
        return self.n_bits - self.w_active + 1


def resolution(cfg: ScalarEncoderConfig) -> float:
    """Smallest value delta guaranteed to move the active block by one bit."""
    return (cfg.value_max - cfg.value_min) / (cfg.n_bits - cfg.w_active)


@functools.cache
def _blocks(n_bits: int, w_active: int) -> list[np.ndarray]:
    """Row b is bucket b's block b..b+w_active-1, a read-only intp view."""
    return list(sliding_window_view(np.arange(n_bits, dtype=np.intp), w_active))


def encode(value: float, cfg: ScalarEncoderConfig) -> np.ndarray:
    """Map a scalar to the sorted indices of exactly w_active contiguous
    active bits out of n_bits, as a read-only array.

    Monotone: larger values shift the block rightward. value_min maps to
    bits {0..w-1}, value_max to the rightmost block; values outside the
    range clip to it. The block starts at bucket
    int((value - value_min) / (value_max - value_min) * (n_buckets - 1) + 0.5),
    capped at n_buckets - 1.
    """
    if not math.isfinite(value):
        raise ValidationError(f"cannot encode non-finite value {value!r}")
    lo = cfg.value_min
    hi = cfg.value_max
    # as min(max(value, lo), hi)
    if value < lo:
        value = lo
    if hi < value:
        value = hi
    rows = _blocks(cfg.n_bits, cfg.w_active)
    n_buckets = len(rows)
    bucket = int((value - lo) / (hi - lo) * (n_buckets - 1) + 0.5)
    if bucket >= n_buckets:
        bucket = n_buckets - 1
    return rows[bucket]


def calibrated_config(
    training_values, n_bits: int = N_BITS, w_active: int = W_ACTIVE
) -> ScalarEncoderConfig:
    """Build a config from a training prefix: observed range plus
    ``MARGIN`` of it on each side; later values outside it clip to its
    edges."""
    values = list(training_values)
    if not values:
        raise ValidationError("cannot calibrate encoder on an empty training prefix")
    lo, hi = min(values), max(values)
    if hi == lo:
        # degenerate constant prefix: open an arbitrary unit window
        pad = max(abs(lo), 1.0)
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    value_min, value_max = lo - MARGIN * span, hi + MARGIN * span
    if not math.isfinite(value_max - value_min):
        raise DataError(
            f"the training prefix's range [{min(values)}, {max(values)}] with its margins "
            f"overflows float64; give value_min and value_max"
        )
    return ScalarEncoderConfig(
        n_bits=n_bits, w_active=w_active, value_min=value_min, value_max=value_max,
    )
