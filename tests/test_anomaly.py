"""Raw prediction-error score and the HD anomaly likelihood.

The raw score's reference definition lives in ``test_temporal_memory``,
next to the test that checks ``TemporalMemory.step`` against it.
"""

import math
import random
from collections import deque

import pytest

from htmpm.anomaly import (EPSILON_SIGMA, LikelihoodState, gaussian_cdf,
                           update_likelihood)
from htmpm.errors import ValidationError

from test_temporal_memory import raw_anomaly_score


class TestRawScore:
    def test_fully_predicted(self):
        assert raw_anomaly_score({1, 2, 3}, (1, 2, 3)) == 0.0

    def test_fully_novel(self):
        assert raw_anomaly_score(set(), (1, 2, 3)) == 1.0

    def test_half_predicted(self):
        predicted = set(range(20))
        active = tuple(range(40))
        assert raw_anomaly_score(predicted, active) == 0.5

    def test_no_active_columns(self):
        assert raw_anomaly_score({1, 2}, ()) == 0.0

    def test_extra_predictions_do_not_hurt(self):
        assert raw_anomaly_score({1, 2, 3, 99}, (1, 2, 3)) == 0.0


class TestGaussianCdf:
    def test_midpoint(self):
        assert gaussian_cdf(0.0) == 0.5

    def test_known_value(self):
        # standard normal CDF at 1.0
        assert gaussian_cdf(1.0) == pytest.approx(0.8413447460685429)

    def test_symmetry(self):
        assert gaussian_cdf(-1.7) == pytest.approx(1.0 - gaussian_cdf(1.7))


class TestLikelihoodState:
    def test_short_window_bounded_by_capacity(self):
        with pytest.raises(ValidationError):
            LikelihoodState(capacity=5, short_window=6)
        with pytest.raises(ValidationError):
            LikelihoodState(short_window=0)

    def test_history_bounded(self):
        st = LikelihoodState(capacity=50, short_window=5)
        for _ in range(200):
            update_likelihood(0.3, st)
        assert len(st) == 50


class TestUpdateLikelihood:
    def test_warm_up_returns_half(self):
        st = LikelihoodState(short_window=10)
        values = [update_likelihood(0.8, st) for _ in range(9)]
        assert values == [0.5] * 9

    def test_constant_stream_stays_half(self):
        st = LikelihoodState(short_window=10)
        for _ in range(100):
            out = update_likelihood(0.25, st)
        assert out == pytest.approx(0.5)

    def test_calm_then_spike_saturates(self):
        st = LikelihoodState(short_window=10)
        for i in range(500):
            update_likelihood(0.02 * (i % 2), st)
        for _ in range(10):
            out = update_likelihood(1.0, st)
        assert out > 0.9999

    def test_drop_below_mean_gives_low_likelihood(self):
        st = LikelihoodState(short_window=10)
        for i in range(500):
            update_likelihood(0.5 + 0.02 * (i % 2), st)
        for _ in range(10):
            out = update_likelihood(0.0, st)
        assert out < 0.5

    def test_monotone_in_short_term_mean(self):
        def run(tail):
            st = LikelihoodState(short_window=5)
            for i in range(300):
                update_likelihood(0.1 + 0.02 * (i % 2), st)
            for v in tail:
                out = update_likelihood(v, st)
            return out
        assert run([0.2] * 5) < run([0.4] * 5) < run([0.8] * 5)

    def test_raw_out_of_range_rejected(self):
        st = LikelihoodState()
        with pytest.raises(ValidationError):
            update_likelihood(1.5, st)

    def test_running_moments_match_direct_computation(self):
        import random
        st = LikelihoodState(capacity=40, short_window=5)
        rng = random.Random(3)
        out = 0.0
        for _ in range(300):
            out = update_likelihood(rng.random(), st)
        hist = list(st.history)
        mu = sum(hist) / len(hist)
        sigma = math.sqrt(sum((x - mu) ** 2 for x in hist) / len(hist))
        mu_s = sum(hist[-5:]) / 5
        assert out == pytest.approx(gaussian_cdf((mu_s - mu) / sigma), rel=1e-6)



def likelihood_reference(raws, capacity, short_window):
    """The likelihoods by the formula, one builtin call at a time: the
    oracle ``update_likelihood`` must match bit for bit. Also returns how
    many likelihoods floored sigma at EPSILON_SIGMA."""
    history, total, total_sq = deque(), 0.0, 0.0
    short, short_total = deque(), 0.0
    out, floored = [], 0
    for raw in raws:
        history.append(raw)
        total += raw
        total_sq += raw * raw
        if len(history) > capacity:
            old = history.popleft()
            total -= old
            total_sq -= old * old
        short.append(raw)
        short_total += raw
        if len(short) > short_window:
            short_total -= short.popleft()
        n = len(history)
        if n < short_window:
            out.append(0.5)
            continue
        mu = total / n
        var = max(total_sq / n - mu * mu, 0.0)
        floored += math.sqrt(var) < EPSILON_SIGMA
        sigma = max(math.sqrt(var), EPSILON_SIGMA)
        mu_short = short_total / short_window
        out.append(0.5 * (1.0 + math.erf((mu_short - mu) / sigma / math.sqrt(2.0))))
    return out, floored


class TestLikelihoodBits:
    """``update_likelihood`` computes the same IEEE operations in the same
    order as ``likelihood_reference``: every likelihood has the same bits."""

    @staticmethod
    def check(raws, capacity, short_window):
        st = LikelihoodState(capacity=capacity, short_window=short_window)
        got = [update_likelihood(raw, st).hex() for raw in raws]
        expected, floored = likelihood_reference(raws, capacity, short_window)
        assert got == [x.hex() for x in expected]
        return floored

    def test_warm_up(self):
        self.check([0.8, 0.0, 1.0, 0.25], capacity=50, short_window=5)

    def test_flat_history_floors_sigma(self):
        assert self.check([0.25] * 60 + [0.3, 0.25, 1.0], capacity=40,
                          short_window=10) >= 50
        assert self.check([0.0] * 30 + [1.0] * 30, capacity=20, short_window=3) >= 10

    @pytest.mark.parametrize("capacity, short_window", [(40, 5), (10, 10), (7, 1)])
    def test_capacity_eviction(self, capacity, short_window):
        rng = random.Random(capacity)
        # raw scores as the TM gives them, a share of 40 active columns,
        # and arbitrary fractions
        raws = [rng.randrange(41) / 40 for _ in range(200)]
        raws += [rng.random() for _ in range(200)] + [-0.0, 1.0, 0.0]
        self.check(raws, capacity, short_window)
