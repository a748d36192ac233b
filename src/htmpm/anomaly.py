"""The historical-distribution (HD) anomaly likelihood of raw scores.

The raw score is the fraction of currently active columns that contained no
cell predicted at the previous step; ``TemporalMemory.step`` returns it.
The likelihood compares the short-term mean of recent raw scores against
the distribution of the full (bounded) score history under a Gaussian
model: L = Phi((mu_short - mu) / sigma), with sigma floored at
``EPSILON_SIGMA`` so that a flat history gives 0.5.

``update_likelihood`` runs once per record, so it is straight-line float
code: locals for the running sums, compares in place of ``max``, and
``gaussian_cdf`` written out with a module constant for sqrt(2). It
computes the same IEEE operations in the same order as the formula, so
every likelihood is bit-identical to it (``tests/test_anomaly.py`` keeps
the formula as the oracle).
"""

from __future__ import annotations

import math
from collections import deque
from math import erf, sqrt

from .errors import ValidationError

# the floor of the history's standard deviation
EPSILON_SIGMA = 1e-6
_SQRT2 = math.sqrt(2.0)


def gaussian_cdf(z: float) -> float:
    return 0.5 * (1.0 + erf(z / _SQRT2))


class LikelihoodState:
    """Bounded history of raw scores with running first/second moments."""

    def __init__(self, capacity: int = 1000, short_window: int = 10):
        if short_window > capacity:
            raise ValidationError("short_window cannot exceed history capacity")
        if short_window <= 0:
            raise ValidationError("short_window must be positive")
        self.capacity = capacity
        self.short_window = short_window
        self.history: deque[float] = deque()
        self._sum = 0.0
        self._sumsq = 0.0
        self._short: deque[float] = deque()
        self._short_sum = 0.0

    def __len__(self):
        return len(self.history)


def update_likelihood(raw: float, st: LikelihoodState) -> float:
    """Push a raw score and return the anomaly likelihood.

    Mutates ``st``. Returns 0.5 while warming up (fewer than short_window
    scores seen); a flat history also yields 0.5 via the sigma floor.
    """
    if not 0.0 <= raw <= 1.0:
        raise ValidationError(f"raw score must be in [0, 1], got {raw}")
    history = st.history
    n = len(history)
    history.append(raw)
    total = st._sum + raw
    total_sq = st._sumsq + raw * raw
    if n >= st.capacity:
        old = history.popleft()
        total -= old
        total_sq -= old * old
    else:
        n += 1
    st._sum = total
    st._sumsq = total_sq
    short_window = st.short_window
    short = st._short
    short.append(raw)
    short_total = st._short_sum + raw
    if len(short) > short_window:
        short_total -= short.popleft()
    st._short_sum = short_total
    if n < short_window:
        return 0.5
    mu = total / n
    var = total_sq / n - mu * mu
    # as max(var, 0.0) and max(sigma, EPSILON_SIGMA): -0.0 and nan stay
    if var < 0.0:
        var = 0.0
    sigma = sqrt(var)
    if sigma < EPSILON_SIGMA:
        sigma = EPSILON_SIGMA
    # gaussian_cdf((mu_short - mu) / sigma)
    return 0.5 * (1.0 + erf((short_total / short_window - mu) / sigma / _SQRT2))
