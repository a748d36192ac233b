"""Scalar encoder: block placement, resolution, and calibration."""

import math
import random

import numpy as np
import pytest

from htmpm.encoder import (ScalarEncoderConfig, calibrated_config, encode,
                           resolution)
from htmpm.errors import DataError, ValidationError
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

    @pytest.mark.parametrize("lo, hi", [
        (-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf),
    ])
    def test_range_wider_than_float64_rejected(self, lo, hi):
        # an infinite width would encode every finite value to bucket 0
        with pytest.raises(ValidationError, match="value_max - value_min"):
            ScalarEncoderConfig(400, 21, lo, hi)

    def test_widest_finite_range_accepted(self):
        cfg = ScalarEncoderConfig(400, 21, -8e307, 8e307)
        assert bits(-1e308, cfg)[0] == 0 and bits(1e308, cfg)[0] == 379
        assert bits(0.0, cfg)[0] == 190

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

    def test_block_is_read_only(self):
        # a block is a row of a table that every encode of its bucket shares
        x = encode(37.25, CFG)
        with pytest.raises(ValueError):
            x[0] = 0
        assert bits(37.25) == tuple(range(141, 162))

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

    @pytest.mark.parametrize("values", [
        [-1e308, 0.0, 1e308], [0.0, 1.7e308], [-1.7e308, 0.0], [1e308, 1e308],
    ], ids=["range", "upper_margin", "lower_margin", "constant_pad"])
    def test_range_wider_than_float64_is_a_data_error(self, values):
        # the range with its margins would have infinite bounds or width
        with pytest.raises(DataError, match="training prefix"):
            calibrated_config(values)

    def test_widest_finite_prefix_calibrates(self):
        cfg = calibrated_config([-7e307, 7e307])
        assert math.isfinite(cfg.value_max - cfg.value_min)

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValidationError):
            calibrated_config([])


def encode_reference(value, cfg):
    """The active bits by the formula, one builtin call at a time: the
    oracle ``encode`` must match."""
    value = min(max(value, cfg.value_min), cfg.value_max)
    span = cfg.value_max - cfg.value_min
    bucket = int((value - cfg.value_min) / span * (cfg.n_buckets - 1) + 0.5)
    bucket = min(bucket, cfg.n_buckets - 1)
    return list(range(bucket, bucket + cfg.w_active))


class TestEncodeBits:
    """``encode`` takes the bucket from the same IEEE operations as
    ``encode_reference``, so every value lands in the same block."""

    @staticmethod
    def rounding_points(cfg):
        """Each bucket's .5 rounding point and its two float neighbours."""
        last = cfg.n_buckets - 1
        span = cfg.value_max - cfg.value_min
        for k in range(last):
            point = cfg.value_min + (k + 0.5) / last * span
            yield from (math.nextafter(point, -math.inf), point,
                        math.nextafter(point, math.inf))

    @pytest.mark.parametrize("cfg", [
        CFG,
        ScalarEncoderConfig(n_bits=29, w_active=21, value_min=0.0, value_max=8.0),
        ScalarEncoderConfig(n_bits=64, w_active=5, value_min=-1.0, value_max=1.0),
    ], ids=["default", "exact_halves", "signed"])
    def test_matches_reference(self, cfg):
        lo, hi = cfg.value_min, cfg.value_max
        values = [lo, hi, -0.0, 0.0, lo - 1.0, hi + 1.0, -1e300, 1e300,
                  math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
        values += list(self.rounding_points(cfg))
        rng = random.Random(5)
        values += [rng.uniform(lo, hi) for _ in range(500)]
        for value in values:
            x = encode(value, cfg)
            assert x.dtype == np.intp
            assert x.tolist() == encode_reference(value, cfg), value

    def test_exact_half_rounds_up(self):
        # (2.5 - 0) / 8 * 8 + 0.5 is exactly 3.0
        cfg = ScalarEncoderConfig(n_bits=29, w_active=21, value_min=0.0, value_max=8.0)
        assert bits(2.5, cfg)[0] == 3
        assert bits(math.nextafter(2.5, 0.0), cfg)[0] == 2
