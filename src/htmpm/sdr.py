"""Sparse distributed representations: the binary vector type, overlap
matching, and the analytical capacity / false-match calculators.

All combinatorics are done with arbitrary-precision integers; division to
a float happens only at the very end, since e.g. C(2048, 20) is far beyond
64-bit range.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionError, ValidationError


@dataclass(frozen=True)
class Sdr:
    """Fixed-length binary vector identified by its set of active bits.

    Immutable; ``active`` is stored as a sorted tuple of distinct indices.
    An empty active set (w = 0) is legal and overlaps everything as 0.
    """

    size_n: int
    active: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.size_n <= 0:
            raise ValidationError(f"SDR size must be positive, got {self.size_n}")
        bits = tuple(sorted(set(self.active)))
        if len(bits) != len(self.active):
            raise ValidationError("duplicate active bits")
        if bits and (bits[0] < 0 or bits[-1] >= self.size_n):
            raise ValidationError(
                f"active bit out of range [0, {self.size_n}): {bits[0]}..{bits[-1]}"
            )
        object.__setattr__(self, "active", bits)

    @property
    def w(self) -> int:
        return len(self.active)

    @property
    def sparsity(self) -> Fraction:
        """Fraction of bits active, exact."""
        return Fraction(len(self.active), self.size_n)


def overlap(a: Sdr, b: Sdr) -> int:
    """Number of bits active in both vectors."""
    if a.size_n != b.size_n:
        raise DimensionError(f"SDR sizes differ: {a.size_n} vs {b.size_n}")
    return len(set(a.active) & set(b.active))


def matches(a: Sdr, b: Sdr, theta: int) -> bool:
    """True when the two vectors share at least ``theta`` active bits."""
    if theta <= 0:
        raise ValidationError(f"match threshold must be positive, got {theta}")
    if theta > min(a.w, b.w):
        raise ValidationError(
            f"match threshold {theta} exceeds operand cardinality "
            f"({a.w}, {b.w})"
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


def random_sdr(n: int, w: int, seed: int) -> Sdr:
    """Uniformly random w-subset of [0, n); deterministic for a given seed."""
    if not 0 <= w <= n:
        raise ValidationError(f"need 0 <= w <= n, got w={w}, n={n}")
    rng = random.Random(seed)
    return Sdr(n, tuple(rng.sample(range(n), w)))
