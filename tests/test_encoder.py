"""Scalar encoder: the RDSE's buckets and bits, resolution, and calibration."""

import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from htmpm import encoder
from htmpm.encoder import (NOISE_BUCKETS, ScalarEncoderConfig, calibrated_config,
                           encode)
from htmpm.errors import DataError, ValidationError
from htmpm.sdr import overlap

# the finest resolution of a stated [0, 100]: 379 buckets across it
CFG = calibrated_config([], value_min=0.0, value_max=100.0)

MASK64 = (1 << 64) - 1


def splitmix64(x):
    """splitmix64's output for state x, one Python int operation at a time."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def bucket_reference(value, cfg):
    quotient = min(max(value / cfg.resolution, -sys.float_info.max), sys.float_info.max)
    return math.floor(quotient + 0.5)


def bits_reference(bucket, cfg):
    """The bucket's active bits by the formula: the oracle ``encode`` must match."""
    return sorted({splitmix64((bucket + i) & MASK64) % cfg.n_bits
                   for i in range(cfg.w_active)})


def bits(value, cfg=CFG):
    """The active bits of one encoding, as a tuple."""
    return tuple(encode(value, cfg).tolist())


class TestConfig:
    def test_even_width_rejected(self):
        with pytest.raises(ValidationError):
            ScalarEncoderConfig(400, 20, 0.25)

    def test_width_must_be_smaller_than_size(self):
        with pytest.raises(ValidationError):
            ScalarEncoderConfig(21, 21, 0.25)

    @pytest.mark.parametrize("resolution", [0.0, -1.0, math.inf, math.nan])
    def test_resolution_must_be_positive_and_finite(self, resolution):
        with pytest.raises(ValidationError, match="resolution"):
            ScalarEncoderConfig(400, 21, resolution)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValidationError):
            calibrated_config([], value_min=5.0, value_max=5.0)

    @pytest.mark.parametrize("lo, hi", [
        (-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf),
    ])
    def test_range_wider_than_float64_rejected(self, lo, hi):
        # an infinite width would put every finite value in bucket 0
        with pytest.raises(ValidationError, match="value_max - value_min"):
            calibrated_config([], value_min=lo, value_max=hi)

    def test_widest_finite_range_accepted(self):
        cfg = calibrated_config([], value_min=-8e307, value_max=8e307)
        assert bucket_reference(-1e308, cfg) == -237
        assert bucket_reference(1e308, cfg) == 237
        assert bits(0.0, cfg) == tuple(bits_reference(0, cfg))

    def test_bucket_count(self):
        # the stated range holds n_bits - w_active + 1 buckets of its finest resolution
        buckets = {bucket_reference(v, CFG) for v in np.linspace(0.0, 100.0, 10_001)}
        assert buckets == set(range(380))


class TestEncode:
    """At a stated range's finest resolution, the range's buckets run from
    0 at value_min to n_bits - w_active at value_max."""

    def test_minimum_maps_to_leftmost_block(self):
        # with the values that round to it
        for v in (0.0, -0.49 * CFG.resolution, 0.49 * CFG.resolution):
            assert bits(v) == tuple(bits_reference(0, CFG))

    def test_maximum_maps_to_rightmost_block(self):
        for v in (100.0, 100.0 - 0.49 * CFG.resolution, 100.0 + 0.49 * CFG.resolution):
            assert bits(v) == tuple(bits_reference(379, CFG))

    def test_monotone_block_position(self):
        starts = [bucket_reference(v, CFG) for v in range(0, 101, 5)]
        assert starts == sorted(starts) and len(set(starts)) == len(starts)
        for v, start in zip(range(0, 101, 5), starts):
            assert bits(v) == tuple(bits_reference(start, CFG))

    @pytest.mark.parametrize("value, start", [
        (0.0, 0), (1.7, 6), (37.25, 141), (50.0, 190), (99.999, 379), (100.0, 379),
    ])
    def test_index_array_of_the_block(self, value, start):
        x = encode(value, CFG)
        assert x.dtype == np.intp
        assert x.tolist() == bits_reference(start, CFG)

    def test_extremes_share_only_chance_collisions(self):
        # buckets 0 and 379 have no bucket number in common, so they share
        # only the bits where two different numbers hash alike: one here
        assert overlap(encode(0.0, CFG), encode(100.0, CFG)) == 1

    def test_deterministic(self):
        assert bits(37.25) == bits(37.25)

    def test_at_most_w_active_distinct_sorted_bits(self):
        rng = random.Random(3)
        for v in [rng.uniform(-1e4, 1e4) for _ in range(300)]:
            x = encode(v, CFG)
            assert x.dtype == np.intp
            assert 0 < len(x) <= 21 and len(set(x.tolist())) == len(x)
            assert x.tolist() == sorted(x.tolist())
            assert 0 <= x[0] and x[-1] < 400

    def test_values_outside_the_stated_range_do_not_clip(self):
        assert bits(-50.0) != bits(0.0)
        assert bits(250.0) != bits(100.0)
        assert overlap(encode(250.0, CFG), encode(100.0, CFG)) <= 3

    def test_block_is_read_only(self):
        # a bucket's bits are one cached array that every encode of it shares
        x = encode(37.25, CFG)
        with pytest.raises(ValueError):
            x[0] = 0
        assert encode(37.25, CFG) is x

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            encode(float("nan"), CFG)
        with pytest.raises(ValidationError):
            encode(float("inf"), CFG)

    @pytest.mark.parametrize("value", [1e308, -1e308, sys.float_info.max])
    def test_quotient_overflow_saturates(self, value):
        # value / resolution overflows to +-inf, whose floor would raise
        cfg = calibrated_config([], value_min=-2.0, value_max=2.0)
        bucket = math.floor(math.copysign(sys.float_info.max, value))
        assert bits(value, cfg) == tuple(bits_reference(bucket, cfg))
        assert bits(value, cfg) == bits(math.copysign(sys.float_info.max, value), cfg)


class TestEncodeBits:
    """``encode`` gives the splitmix64 reference's bits, bit for bit."""

    @pytest.mark.parametrize("cfg", [
        CFG,
        ScalarEncoderConfig(n_bits=29, w_active=21, resolution=0.25),
        ScalarEncoderConfig(n_bits=64, w_active=5, resolution=1e-3),
    ], ids=["default", "exact_halves", "signed"])
    def test_matches_reference(self, cfg):
        r = cfg.resolution
        values = [-0.0, 0.0, 1e300, -1e300, 1e308, -1e308, 5e-324, -5e-324,
                  (2**63) * r, (2**64) * r, -(2**64) * r]
        values += [(k + 0.5) * r for k in range(-20, 20)]
        rng = random.Random(5)
        values += [rng.uniform(-1e3, 1e3) * r for _ in range(500)]
        values += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300) for _ in range(200)]
        for value in values:
            x = encode(value, cfg)
            assert x.dtype == np.intp
            assert x.tolist() == bits_reference(bucket_reference(value, cfg), cfg), value

    def test_random_configs_match_reference(self):
        rng = random.Random(9)
        for _ in range(30):
            w = rng.randrange(1, 60, 2)
            cfg = ScalarEncoderConfig(rng.randint(w + 1, 2048), w,
                                      10.0 ** rng.uniform(-6, 6))
            for _ in range(20):
                value = rng.gauss(0.0, 1e3 * cfg.resolution)
                assert encode(value, cfg).tolist() == bits_reference(
                    bucket_reference(value, cfg), cfg)

    def test_exact_half_rounds_up(self):
        # 2.625 / 0.25 + 0.5 is exactly 11.0, and -2.625 / 0.25 + 0.5 exactly -10.0
        cfg = ScalarEncoderConfig(n_bits=29, w_active=21, resolution=0.25)
        assert bucket_reference(2.625, cfg) == 11
        assert bits(2.625, cfg) == tuple(bits_reference(11, cfg))
        assert bits(math.nextafter(2.625, 0.0), cfg) == tuple(bits_reference(10, cfg))
        assert bits(-2.625, cfg) == tuple(bits_reference(-10, cfg))


class TestResolution:
    def test_formula(self):
        assert CFG.resolution == 100.0 / 379.0

    def test_degenerate_two_buckets(self):
        cfg = calibrated_config([], n_bits=4, w_active=3, value_min=0.0, value_max=10.0)
        assert cfg.resolution == 10.0

    def test_linear_in_range(self):
        wide = calibrated_config([], value_min=0.0, value_max=200.0)
        assert wide.resolution == 2 * CFG.resolution

    def test_noise_sets_a_coarser_resolution(self):
        # white noise of sigma 0.5 around a stated range of width 2
        noise = np.random.default_rng(4).normal(0.0, 0.5, 4000).tolist()
        cfg = calibrated_config(noise, value_min=-1.0, value_max=1.0)
        assert cfg.resolution == pytest.approx(NOISE_BUCKETS * 0.5, rel=0.05)
        # and the same noise without a stated range
        assert calibrated_config(noise).resolution == cfg.resolution

    @pytest.mark.parametrize("prefix", [
        [0.0, 100.0],                               # criterion 2's two values
        [1.0, 2.0, 3.0, 4.0, 5.0],                  # a ramp
        [10.0, 25.0, 40.0, 55.0, 70.0, 70.0, 70.0],  # piecewise linear
    ], ids=["two_values", "ramp", "piecewise_linear"])
    def test_noise_free_prefix_keeps_the_width_rule(self, prefix):
        width = max(prefix) - min(prefix)
        assert calibrated_config(prefix).resolution == width / 379


class TestSimilarityProperties:
    def test_sub_resolution_deltas_nearly_identical(self):
        # values under one resolution apart are at most one bucket apart, so
        # they share all but the bits of one bucket number and collisions
        rng = random.Random(7)
        res = CFG.resolution
        shared = []
        for _ in range(200):
            v = rng.uniform(-100.0, 100.0)
            shared.append(overlap(encode(v, CFG), encode(v + rng.uniform(0.0, res * 0.999), CFG)))
        assert min(shared) >= 16 and np.mean(shared) >= 19

    @pytest.mark.parametrize("cfg", [
        CFG, ScalarEncoderConfig(n_bits=64, w_active=9, resolution=1.0),
    ], ids=["default", "small"])
    def test_near_buckets_share_their_common_offsets(self, cfg):
        # buckets d < w apart share at least the distinct hashes of the
        # w - d bucket numbers they have in common
        rng = random.Random(11)
        w = cfg.w_active
        for _ in range(100):
            b = rng.randint(-10**6, 10**6)
            for d in range(w):
                common = {splitmix64((b + d + i) & MASK64) % cfg.n_bits for i in range(w - d)}
                shared = (set(encode(b * cfg.resolution, cfg).tolist())
                          & set(encode((b + d) * cfg.resolution, cfg).tolist()))
                assert shared >= common

    def test_far_apart_values_share_few_bits(self):
        # only chance collisions: about w^2 / n_bits = 1.1 bits on average
        rng = random.Random(8)
        span = 21 * CFG.resolution
        shared = [overlap(encode(v, CFG), encode(v + span * 1.1 + rng.uniform(0.0, 1e4), CFG))
                  for v in (rng.uniform(-1e4, 1e4) for _ in range(500))]
        assert np.mean(shared) < 2.0 and max(shared) <= 6


class TestHashStability:
    def test_same_bits_under_any_hash_seed(self):
        """The bits come from a fixed integer mix, not from ``hash()``,
        which PYTHONHASHSEED salts."""
        script = ("from htmpm.encoder import calibrated_config, encode\n"
                  "cfg = calibrated_config([], value_min=-2.0, value_max=2.0)\n"
                  "print([encode(v / 7, cfg).tolist() for v in range(-50, 50)])\n")
        src = str(Path(encoder.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("1", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.add(result.stdout)
        cfg = calibrated_config([], value_min=-2.0, value_max=2.0)
        assert outputs == {f"{[encode(v / 7, cfg).tolist() for v in range(-50, 50)]}\n"}


class TestCache:
    def test_cache_stays_bounded(self):
        cfg = ScalarEncoderConfig(n_bits=64, w_active=3, resolution=1.0)
        maxsize = encoder._bucket_bits.cache_info().maxsize
        assert maxsize is not None
        for b in range(maxsize + 500):
            encode(float(b), cfg)
        assert encoder._bucket_bits.cache_info().currsize <= maxsize
        # an evicted bucket is worked out again to the same bits
        assert encode(0.0, cfg).tolist() == bits_reference(0, cfg)


class TestCalibration:
    def test_width_is_the_prefix_range(self):
        cfg = calibrated_config([30.0, 20.0, 10.0])
        assert cfg.resolution == 20.0 / 379

    def test_constant_prefix_opens_a_window(self):
        # +-max(|v|, 1) around the constant
        assert calibrated_config([5.0, 5.0, 5.0]).resolution == 10.0 / 379
        assert calibrated_config([0.25, 0.25]).resolution == 2.0 / 379

    @pytest.mark.parametrize("values", [
        [-1e308, 0.0, 1e308], [1e308, 1e308],
    ], ids=["range", "constant_pad"])
    def test_range_wider_than_float64_is_a_data_error(self, values):
        # the range, or the window around a constant, has an infinite width
        with pytest.raises(DataError, match="training prefix's range"):
            calibrated_config(values)

    @pytest.mark.parametrize("stated", [False, True], ids=["range_free", "stated"])
    def test_noise_estimate_overflow_is_a_data_error(self, stated):
        # the range is finite, but second differences of 0, 1e308, 0 overflow;
        # a stated range does not help
        bounds = {"value_min": -2.0, "value_max": 2.0} if stated else {}
        values = [0.0, 1e308] * 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="training prefix's range"):
                calibrated_config(values, **bounds)

    def test_subnormal_width_calibrates(self):
        # width / 379 would underflow to a resolution of 0
        assert calibrated_config([0.0, 5e-324]).resolution == sys.float_info.min

    def test_widest_finite_prefix_calibrates(self):
        cfg = calibrated_config([-7e307, 7e307])
        assert cfg.resolution == 1.4e308 / 379

    def test_empty_prefix_rejected(self):
        # a data error, as the threshold detector's is
        with pytest.raises(DataError, match="empty training prefix"):
            calibrated_config([])

    def test_empty_prefix_with_a_stated_range(self):
        assert calibrated_config([], value_min=-1.0, value_max=1.0).resolution == 2.0 / 379
