"""Sparse distributed representations: overlap matching on active-bit
index arrays, and the analytical capacity / false-match calculators.

An SDR is held as its sorted, distinct intp array of active bits, the form
``encode`` and the spatial pooler return; an empty array (w = 0) is legal
and overlaps everything as 0.

All combinatorics are done with arbitrary-precision integers; division to
a float happens only at the very end, since e.g. C(2048, 20) is far beyond
64-bit range.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .errors import ValidationError


def overlap(a: np.ndarray, b: np.ndarray) -> int:
    """Number of bits active in both index arrays."""
    return np.intersect1d(a, b).size


def matches(a: np.ndarray, b: np.ndarray, theta: int) -> bool:
    """True when the two index arrays share at least ``theta`` active bits."""
    if theta <= 0:
        raise ValidationError(f"match threshold must be positive, got {theta}")
    if theta > min(len(a), len(b)):
        raise ValidationError(
            f"match threshold {theta} exceeds operand cardinality "
            f"({len(a)}, {len(b)})"
        )
    return overlap(a, b) >= theta


def capacity(n: int, w: int) -> int:
    """Number of distinct SDRs of size n with exactly w active bits: C(n, w)."""
    if not 0 <= w <= n:
        raise ValidationError(f"need 0 <= w <= n, got w={w}, n={n}")
    return math.comb(n, w)


def false_match_probability(n: int, w: int, theta: int) -> float:
    """Probability that a uniformly random w-bit vector matches a fixed one
    at overlap threshold theta.

    Sums C(w, b) * C(n - w, w - b) over b >= theta, divided by C(n, w).
    The candidate space is vectors with exactly w active bits.
    """
    if not (0 < theta <= w <= n):
        raise ValidationError(f"need 0 < theta <= w <= n, got n={n}, w={w}, theta={theta}")
    numerator = sum(math.comb(w, b) * math.comb(n - w, w - b) for b in range(theta, w + 1))
    return float(Fraction(numerator, math.comb(n, w)))


def random_sdr(n: int, w: int, seed: int) -> np.ndarray:
    """Uniformly random w-subset of [0, n) as a read-only sorted intp
    array; deterministic for a given seed."""
    if not 0 <= w <= n:
        raise ValidationError(f"need 0 <= w <= n, got w={w}, n={n}")
    bits = np.sort(np.array(random.Random(seed).sample(range(n), w), dtype=np.intp))
    bits.setflags(write=False)
    return bits
