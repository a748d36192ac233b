"""Scalar-to-SDR encoder: a random distributed scalar encoder (RDSE).

A value falls in bucket ``floor(value / resolution + 0.5)``; its active
bits are the splitmix64 hashes of the bucket numbers ``bucket .. bucket +
w_active - 1`` modulo ``n_bits``, deduplicated and sorted (Purdy 2016;
htm.core). Buckets d < w_active apart share the hashes of their w_active -
d common numbers, so nearby values share bits, while distant buckets share
only chance collisions. There is no range, so nothing clips. splitmix64 is
a fixed integer mix: the bits are the same in every process, which
Python's ``hash()``, salted by ``PYTHONHASHSEED``, would not give.

``encode`` returns the active bits as a sorted int index array, the form
every layer of the HTM pipeline reads. A bucket's bits are one read-only
array in a bounded cache, so a revisited bucket makes no array.
``calibrated_config`` is the one place a resolution is worked out.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError

# the HTM detector's encoder size: n_bits and w_active when none are given
N_BITS = 400
W_ACTIVE = 21
# the finest resolution calibrated_config gives, in noise sigmas of the prefix
NOISE_BUCKETS = 4
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class ScalarEncoderConfig:
    n_bits: int
    w_active: int
    resolution: float

    def __post_init__(self):
        if self.w_active <= 0 or self.n_bits <= 0:
            raise ValidationError("n_bits and w_active must be positive")
        if self.w_active >= self.n_bits:
            raise ValidationError(
                f"w_active ({self.w_active}) must be < n_bits ({self.n_bits})"
            )
        if self.w_active % 2 == 0:
            raise ValidationError(f"w_active must be odd, got {self.w_active}")
        if not 0.0 < self.resolution < math.inf:
            raise ValidationError(f"resolution must be positive and finite, got {self.resolution}")


@functools.lru_cache(maxsize=4096)
def _bucket_bits(bucket: int, n_bits: int, w_active: int) -> np.ndarray:
    """The bucket's sorted, distinct active bits, a read-only intp array:
    splitmix64 of each bucket number mod 2**64 (uint64 arrays wrap)."""
    z = np.arange(w_active, dtype=np.uint64) + np.uint64(bucket % 2**64)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    bits = np.unique((z ^ (z >> np.uint64(31))) % np.uint64(n_bits)).astype(np.intp)
    bits.flags.writeable = False
    return bits


def encode(value: float, cfg: ScalarEncoderConfig) -> np.ndarray:
    """Map a scalar to the sorted indices of at most w_active active bits
    out of n_bits, as a read-only array. The quotient value / resolution
    saturates at +-sys.float_info.max, so a huge value still has a bucket."""
    if not math.isfinite(value):
        raise ValidationError(f"cannot encode non-finite value {value!r}")
    quotient = value / cfg.resolution
    if quotient > _FLOAT_MAX:
        quotient = _FLOAT_MAX
    elif quotient < -_FLOAT_MAX:
        quotient = -_FLOAT_MAX
    return _bucket_bits(math.floor(quotient + 0.5), cfg.n_bits, cfg.w_active)


def calibrated_config(training_values, n_bits: int = N_BITS, w_active: int = W_ACTIVE,
                      value_min: float | None = None,
                      value_max: float | None = None) -> ScalarEncoderConfig:
    """The resolution is the coarser of width / (n_bits - w_active) and
    NOISE_BUCKETS noise sigmas of the training prefix.

    The width is value_max - value_min when those are given, else the
    prefix's range; a constant prefix v opens a window of +-max(|v|, 1).
    The noise sigma is median |second difference| / (0.6745 sqrt 6), which
    reads white noise's sigma (Gasser et al. 1986), and 0 on a piecewise
    linear prefix or on fewer than three values."""
    ScalarEncoderConfig(n_bits, w_active, 1.0)  # check the sizes before they divide
    values = np.asarray(training_values, dtype=np.float64)
    if value_min is not None:
        width = value_max - value_min
        # an infinite width would put every finite value in bucket 0
        if not (value_min < value_max and math.isfinite(width)):
            raise ValidationError(
                f"need value_min < value_max and value_max - value_min finite, "
                f"got [{value_min}, {value_max}]")
    elif not len(values):
        raise DataError("cannot calibrate encoder on an empty training prefix")
    else:
        lo, hi = float(values.min()), float(values.max())
        pad = max(abs(lo), 1.0) if hi == lo else 0.0
        width = (hi + pad) - (lo - pad)
    with np.errstate(over="ignore", invalid="ignore"):
        second = np.abs(np.diff(values, 2))
        sigma = float(np.median(second)) / (0.6745 * math.sqrt(6.0)) if len(second) else 0.0
    if not math.isfinite(width + NOISE_BUCKETS * sigma):
        raise DataError(
            f"the training prefix's range [{values.min()}, {values.max()}] overflows "
            f"float64 in its width or noise estimate")
    # floored at the least normal float, which a subnormal width would underflow
    resolution = max(width / (n_bits - w_active), NOISE_BUCKETS * sigma, sys.float_info.min)
    return ScalarEncoderConfig(n_bits=n_bits, w_active=w_active, resolution=resolution)
