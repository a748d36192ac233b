"""Overlap matching on index arrays, and the combinatorial calculators."""

import itertools

import numpy as np
import pytest

from htmpm.errors import ValidationError
from htmpm.sdr import capacity, false_match_probability, matches, overlap, random_sdr


def bits(*indices):
    """Sorted active bits, the form ``encode`` and the pooler return."""
    return np.array(indices, dtype=np.intp)


class TestOverlap:
    def test_self_overlap_is_w(self):
        s = bits(1, 5, 9)
        assert overlap(s, s) == 3

    def test_disjoint_sets(self):
        assert overlap(bits(0, 1), bits(2, 3)) == 0

    def test_partial_intersection(self):
        assert overlap(bits(0, 1), bits(1, 2)) == 1

    def test_empty_overlaps_everything_as_zero(self):
        assert overlap(bits(), bits(3, 4)) == 0
        assert overlap(bits(3, 4), bits()) == 0
        assert overlap(bits(), bits()) == 0

    def test_symmetry(self):
        a, b = random_sdr(128, 12, seed=1), random_sdr(128, 12, seed=2)
        assert overlap(a, b) == overlap(b, a)

    def test_is_a_python_int(self):
        assert type(overlap(bits(0, 1), bits(1, 2))) is int


class TestMatches:
    def test_threshold_met(self):
        assert matches(bits(0, 1, 2), bits(1, 2, 3), theta=2)

    def test_threshold_not_met(self):
        assert not matches(bits(0, 1, 2), bits(2, 3, 4), theta=2)

    def test_invalid_thresholds(self):
        a = bits(0, 1)
        with pytest.raises(ValidationError):
            matches(a, a, theta=0)
        with pytest.raises(ValidationError):
            matches(a, a, theta=3)

    def test_empty_operand_matches_no_positive_threshold(self):
        with pytest.raises(ValidationError, match=r"\(0, 2\)"):
            matches(bits(), bits(0, 1), theta=1)


class TestCapacity:
    def test_small_exact_value(self):
        # all 2-subsets of 6 elements
        assert capacity(6, 2) == 15
        assert capacity(6, 2) == len(list(itertools.combinations(range(6), 2)))

    def test_full_vector(self):
        assert capacity(20, 20) == 1

    def test_large_value_order_of_magnitude(self):
        assert len(str(capacity(2048, 20))) - 1 == 47

    def test_symmetry(self):
        for n, w in ((10, 3), (2048, 20), (7, 0)):
            assert capacity(n, w) == capacity(n, n - w)

    def test_bounds(self):
        with pytest.raises(ValidationError):
            capacity(5, 6)
        with pytest.raises(ValidationError):
            capacity(5, -1)


class TestFalseMatchProbability:
    def test_small_case_exact(self):
        assert false_match_probability(6, 2, 1) == 0.6

    def test_small_case_vs_brute_force(self):
        # enumerate every 2-subset of 6 bits against a fixed vector
        x = frozenset((0, 1))
        hits = sum(
            1 for cand in itertools.combinations(range(6), 2)
            if len(x & set(cand)) >= 1
        )
        assert false_match_probability(6, 2, 1) == hits / 15

    def test_theta_equals_w_is_inverse_capacity(self):
        assert false_match_probability(30, 4, 4) == 1 / capacity(30, 4)

    def test_monotone_nonincreasing_in_theta(self):
        probs = [false_match_probability(256, 12, t) for t in range(1, 13)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_large_case_stays_finite_and_tiny(self):
        p = false_match_probability(2048, 40, 20)
        assert 0.0 < p < 1e-20

    def test_bounds(self):
        with pytest.raises(ValidationError):
            false_match_probability(10, 3, 0)
        with pytest.raises(ValidationError):
            false_match_probability(10, 3, 4)


class TestRandomSdr:
    # the bits random_sdr(1024, 20, seed) gave when it built a tuple-based SDR
    PINNED = {
        0: (82, 151, 194, 202, 285, 286, 300, 447, 513, 530,
            577, 621, 635, 676, 733, 788, 829, 861, 976, 995),
        1: (4, 58, 129, 192, 209, 241, 275, 429, 468, 522,
            545, 650, 777, 798, 886, 912, 920, 967, 999, 1014),
        42: (51, 54, 61, 65, 178, 191, 209, 228, 285, 407,
             447, 451, 457, 476, 501, 563, 569, 859, 864, 919),
        2024: (119, 152, 303, 372, 410, 422, 435, 446, 502, 543,
               622, 633, 676, 725, 839, 843, 851, 959, 962, 1020),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_pinned_bits(self, seed):
        assert tuple(random_sdr(1024, 20, seed).tolist()) == self.PINNED[seed]

    def test_sorted_read_only_intp(self):
        s = random_sdr(100, 7, seed=9)
        assert s.dtype == np.intp and not s.flags.writeable
        assert (np.diff(s) > 0).all()

    def test_forced_full_set(self):
        assert random_sdr(8, 8, seed=123).tolist() == list(range(8))

    def test_empty(self):
        s = random_sdr(8, 0, seed=123)
        assert s.dtype == np.intp and s.size == 0

    def test_deterministic_for_seed(self):
        assert np.array_equal(random_sdr(1024, 20, seed=42), random_sdr(1024, 20, seed=42))

    def test_different_seeds_differ(self):
        assert not np.array_equal(random_sdr(1024, 20, seed=1), random_sdr(1024, 20, seed=2))

    def test_cardinality_and_range(self):
        s = random_sdr(100, 7, seed=9)
        assert len(s) == 7 and 0 <= s[0] and s[-1] < 100

    def test_bounds(self):
        with pytest.raises(ValidationError):
            random_sdr(5, 6, seed=0)
