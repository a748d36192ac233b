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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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

    @property
    def n_buckets(self) -> int:
        return self.n_bits - self.w_active + 1


def resolution(cfg: ScalarEncoderConfig) -> float:
    """Smallest value delta guaranteed to move the active block by one bit."""
    return (cfg.value_max - cfg.value_min) / (cfg.n_bits - cfg.w_active)


def encode(value: float, cfg: ScalarEncoderConfig) -> np.ndarray:
    """Map a scalar to the sorted indices of exactly w_active contiguous
    active bits out of n_bits.

    Monotone: larger values shift the block rightward. value_min maps to
    bits {0..w-1}, value_max to the rightmost block; values outside the
    range clip to it.
    """
    if not math.isfinite(value):
        raise ValidationError(f"cannot encode non-finite value {value!r}")
    value = min(max(value, cfg.value_min), cfg.value_max)
    span = cfg.value_max - cfg.value_min
    bucket = int((value - cfg.value_min) / span * (cfg.n_buckets - 1) + 0.5)
    bucket = min(bucket, cfg.n_buckets - 1)
    return np.arange(bucket, bucket + cfg.w_active)


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
    return ScalarEncoderConfig(
        n_bits=n_bits,
        w_active=w_active,
        value_min=lo - MARGIN * span,
        value_max=hi + MARGIN * span,
    )
