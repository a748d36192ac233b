"""Scalar encoder: block placement, resolution, and calibration."""

import random

import numpy as np
import pytest

from htmpm.encoder import (ScalarEncoderConfig, calibrated_config, encode,
                           resolution)
from htmpm.errors import ValidationError
from htmpm.sdr import Sdr, overlap

CFG = ScalarEncoderConfig(n_bits=400, w_active=21, value_min=0.0, value_max=100.0)


def bits(value, cfg=CFG):
    """The active bits of one encoding, as a tuple."""
    return tuple(encode(value, cfg).tolist())


def sdr(value):
    return Sdr(CFG.n_bits, bits(value))


class TestConfig:
    def test_even_width_rejected(self):
        with pytest.raises(ValidationError):
            ScalarEncoderConfig(400, 20, 0.0, 100.0)

    def test_width_must_be_smaller_than_size(self):
        with pytest.raises(ValidationError):
            ScalarEncoderConfig(21, 21, 0.0, 1.0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValidationError):
            ScalarEncoderConfig(400, 21, 5.0, 5.0)

    def test_bucket_count(self):
        assert CFG.n_buckets == 380


class TestEncode:
    def test_minimum_maps_to_leftmost_block(self):
        assert bits(0.0) == tuple(range(21))

    def test_maximum_maps_to_rightmost_block(self):
        assert bits(100.0) == tuple(range(379, 400))

    def test_extremes_do_not_overlap(self):
        assert overlap(sdr(0.0), sdr(100.0)) == 0

    def test_deterministic(self):
        assert bits(37.25) == bits(37.25)

    def test_width_constant_across_range(self):
        for v in (0.0, 1.7, 50.0, 99.999, 100.0):
            assert len(encode(v, CFG)) == 21

    def test_monotone_block_position(self):
        starts = [bits(v)[0] for v in range(0, 101, 5)]
        assert starts == sorted(starts)

    def test_clipping(self):
        assert bits(-50.0) == bits(0.0)
        assert bits(250.0) == bits(100.0)

    @pytest.mark.parametrize("value, start", [
        (-50.0, 0), (0.0, 0), (1.7, 6), (37.25, 141), (50.0, 190),
        (99.999, 379), (100.0, 379), (250.0, 379),
    ])
    def test_index_array_of_the_block(self, value, start):
        # the blocks the Sdr-returning encoder gave for these values
        x = encode(value, CFG)
        assert x.dtype == np.intp
        assert x.tolist() == list(range(start, start + 21))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            encode(float("nan"), CFG)
        with pytest.raises(ValidationError):
            encode(float("inf"), CFG)


class TestResolution:
    def test_formula(self):
        assert resolution(CFG) == 100.0 / 379.0

    def test_degenerate_two_buckets(self):
        cfg = ScalarEncoderConfig(4, 3, 0.0, 10.0)
        assert resolution(cfg) == 10.0

    def test_linear_in_range(self):
        wide = ScalarEncoderConfig(400, 21, 0.0, 200.0)
        assert resolution(wide) == 2 * resolution(CFG)


class TestSimilarityProperties:
    def test_sub_resolution_deltas_nearly_identical(self):
        rng = random.Random(7)
        res = resolution(CFG)
        for _ in range(200):
            v = rng.uniform(0.0, 100.0 - res)
            d = rng.uniform(0.0, res * 0.999)
            assert overlap(sdr(v), sdr(v + d)) >= 20

    def test_far_apart_values_disjoint(self):
        rng = random.Random(8)
        res = resolution(CFG)
        span = 21 * res
        for _ in range(200):
            v = rng.uniform(0.0, 100.0 - span * 1.2)
            assert overlap(sdr(v), sdr(v + span * 1.1)) == 0


class TestCalibration:
    def test_range_covers_training_values_with_margin(self):
        cfg = calibrated_config([10.0, 30.0, 20.0])
        assert cfg.value_min == pytest.approx(10.0 - 2.0)
        assert cfg.value_max == pytest.approx(30.0 + 2.0)

    def test_constant_prefix_opens_a_window(self):
        cfg = calibrated_config([5.0, 5.0, 5.0])
        assert cfg.value_min < 5.0 < cfg.value_max

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValidationError):
            calibrated_config([])
