"""The historical-distribution (HD) anomaly likelihood of raw scores.

The raw score is the fraction of currently active columns that contained no
cell predicted at the previous step; ``TemporalMemory.step`` returns it.
The likelihood compares the short-term mean of recent raw scores against
the distribution of the full (bounded) score history under a Gaussian
model: L = Phi((mu_short - mu) / sigma), with sigma floored at
``EPSILON_SIGMA`` so that a flat history gives 0.5.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import ValidationError

# the floor of the history's standard deviation
EPSILON_SIGMA = 1e-6


def gaussian_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


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
    st.history.append(raw)
    st._sum += raw
    st._sumsq += raw * raw
    if len(st.history) > st.capacity:
        old = st.history.popleft()
        st._sum -= old
        st._sumsq -= old * old
    st._short.append(raw)
    st._short_sum += raw
    if len(st._short) > st.short_window:
        st._short_sum -= st._short.popleft()
    n = len(st.history)
    if n < st.short_window:
        return 0.5
    mu = st._sum / n
    var = max(st._sumsq / n - mu * mu, 0.0)
    sigma = max(math.sqrt(var), EPSILON_SIGMA)
    mu_short = st._short_sum / st.short_window
    return gaussian_cdf((mu_short - mu) / sigma)

