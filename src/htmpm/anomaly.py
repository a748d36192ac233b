"""Prediction-error anomaly score and the historical-distribution (HD)
anomaly likelihood.

The raw score is the fraction of currently active columns that contained no
cell predicted at the previous step. The likelihood compares the short-term
mean of recent raw scores against the distribution of the full (bounded)
score history under a Gaussian model: L = Phi((mu_short - mu) / sigma).
"""

from __future__ import annotations

import math
from collections import deque

from .errors import ValidationError


def raw_anomaly_score(predicted_columns: set[int], active_columns) -> float:
    """Fraction of active columns not predicted at the previous step.

    0 = fully anticipated, 1 = fully novel; 0 when no columns are active.
    The HTM detector takes this score from ``TemporalMemory.step``; this
    function is its reference definition.
    """
    cols = list(active_columns)
    if not cols:
        return 0.0
    hits = sum(1 for c in cols if c in predicted_columns)
    return (len(cols) - hits) / len(cols)


def gaussian_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


class LikelihoodState:
    """Bounded history of raw scores with running first/second moments."""

    def __init__(self, capacity: int = 1000, short_window: int = 10,
                 epsilon_sigma: float = 1e-6):
        if short_window > capacity:
            raise ValidationError("short_window cannot exceed history capacity")
        if short_window <= 0:
            raise ValidationError("short_window must be positive")
        self.capacity = capacity
        self.short_window = short_window
        self.epsilon_sigma = epsilon_sigma
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
    sigma = max(math.sqrt(var), st.epsilon_sigma)
    mu_short = st._short_sum / st.short_window
    return gaussian_cdf((mu_short - mu) / sigma)

