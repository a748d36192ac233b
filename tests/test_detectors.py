"""Streaming detector contract and the baseline implementations."""

import hashlib
import math
import random
from collections import deque
from datetime import datetime, timedelta

import numpy as np
import pytest

from htmpm.detectors import (_HTM_SETTINGS, DETECTOR_KINDS, DetectorConfig, HtmDetector,
                             NullDetector, RandomDetector, ThresholdDetector,
                             WindowedGaussianDetector, build_detector,
                             run_file)
from htmpm.cli import main
from htmpm.errors import DataError, StreamError, ValidationError
from records import as_columns

T0 = datetime(2021, 1, 1)


def series(values, step_seconds=60):
    return [(T0 + timedelta(seconds=i * step_seconds), float(v))
            for i, v in enumerate(values)]


class TestDetectorConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            DetectorConfig("lstm", {})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            DetectorConfig("null", {"window": 5})
        with pytest.raises(ValidationError):
            DetectorConfig("htm_hd", {"boost": 2.0})
        with pytest.raises(ValidationError):  # removed: it never did anything
            DetectorConfig("htm_hd", {"likelihood_warm_start": True})

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_bad_seed_rejected(self, seed):
        """Refused before numpy's generators see it, which would raise a
        bare ValueError on a negative seed."""
        with pytest.raises(ValidationError, match="seed must be"):
            DetectorConfig("htm_hd", {}, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        build_detector(DetectorConfig("htm_hd", {}, seed=np.int64(3)))

    def test_known_parameters_accepted(self):
        DetectorConfig("windowed_gaussian", {"window": 100})
        DetectorConfig("threshold", {"threshold": 2.0, "feature": "rms"})
        DetectorConfig("htm_hd", {"n_columns": 1024, "value_min": 0.0,
                                  "value_max": 1.0})


class TestNullAndRandom:
    def test_null_is_constant_half(self):
        det = NullDetector()
        assert [det.step(t, v) for t, v in series([1, 2, 3, 4, 5])] == [0.5] * 5

    def test_random_seeded_and_bounded(self):
        a = RandomDetector(seed=7)
        b = RandomDetector(seed=7)
        sa = [a.step(t, v) for t, v in series(range(100))]
        sb = [b.step(t, v) for t, v in series(range(100))]
        assert sa == sb
        assert all(0.0 <= s < 1.0 for s in sa)

    def test_random_seeds_differ(self):
        a = RandomDetector(seed=1).step(T0, 0.0)
        b = RandomDetector(seed=2).step(T0, 0.0)
        assert a != b


class TestThresholdDetector:
    def test_fixed_threshold(self):
        det = ThresholdDetector(threshold=2.0)
        out = [det.step(t, v) for t, v in series([1.0, 2.5])]
        assert out == [0.0, 1.0]

    def test_absolute_value_feature(self):
        det = ThresholdDetector(threshold=2.0)
        assert det.step(T0, -3.0) == 1.0

    def test_calibration_mean_plus_sigmas(self):
        det = ThresholdDetector()
        det.calibrate([1.0, 2.0, 3.0])
        expected = 2.0 + 4.0 * math.sqrt(2.0 / 3.0)
        assert det.threshold == pytest.approx(expected)

    def test_calibration_on_empty_prefix_fails(self):
        with pytest.raises(DataError):
            ThresholdDetector().calibrate([])

    def test_uncalibrated_step_fails(self):
        with pytest.raises(ValidationError):
            ThresholdDetector().step(T0, 1.0)

    def test_rms_feature(self):
        det = ThresholdDetector(threshold=2.5, feature="rms", rms_window=2)
        out = [det.step(t, v) for t, v in series([3.0, 3.0, 0.0])]
        # rms windows: [3] -> 3, [3,3] -> 3, [3,0] -> 2.12
        assert out == [1.0, 1.0, 0.0]

    def test_bad_feature_rejected(self):
        with pytest.raises(ValidationError):
            ThresholdDetector(feature="peak")

    @pytest.mark.parametrize("rms_window", [0, -3])
    def test_empty_rms_window_rejected(self, rms_window):
        # an rms over no values would divide by zero at calibration
        with pytest.raises(ValidationError, match=f"rms_window must be >= 1, got {rms_window}"):
            build_detector(DetectorConfig("threshold", {"feature": "rms",
                                                        "rms_window": rms_window}))


class TestWindowedGaussian:
    def test_first_records_are_half(self):
        det = WindowedGaussianDetector()
        out = [det.step(t, v) for t, v in series([1.0, 2.0, 3.0])]
        assert out[0] == 0.5 and out[1] == 0.5

    def test_outlier_saturates(self):
        det = WindowedGaussianDetector(window=100)
        for t, v in series([0.0, 0.01] * 50):
            det.step(t, v)
        assert det.step(T0 + timedelta(days=1), 10.0) > 0.999999

    def test_in_distribution_value_scores_low(self):
        det = WindowedGaussianDetector(window=100)
        for t, v in series([0.0, 1.0] * 50):
            det.step(t, v)
        assert det.step(T0 + timedelta(days=1), 0.5) < 0.1

    @pytest.mark.parametrize("window, vals", [
        (10, [1.0, 3.0, 5.0, 7.0]),
        # past its window the detector forgets the oldest values
        (4, [100.0, -50.0, 1.0, 3.0, 5.0, 7.0]),
    ], ids=["within_window", "past_window"])
    def test_score_matches_two_sided_tail(self, window, vals):
        det = WindowedGaussianDetector(window=window)
        for t, v in series(vals):
            det.step(t, v)
        vals = vals[-window:]
        mu = sum(vals) / 4
        sigma = math.sqrt(sum((v - mu) ** 2 for v in vals) / 4)
        z = abs(10.0 - mu) / sigma
        expected = math.erf(z / math.sqrt(2.0))
        assert det.step(T0 + timedelta(days=1), 10.0) == pytest.approx(expected)

    def test_window_too_small_rejected(self):
        with pytest.raises(ValidationError):
            WindowedGaussianDetector(window=1)


def windowed_gaussian_reference(values, window):
    """The detector's scores by its formula, one builtin call at a time:
    the oracle its step must match bit for bit. Also returns how many
    scored records had their variance clamped to 0 and their sigma
    floored at 1e-9."""
    kept, total, total_sq = deque(), 0.0, 0.0
    scores, clamped, floored = [], 0, 0
    for value in values:
        n = len(kept)
        if n >= 2:
            mu = total / n
            clamped += total_sq / n - mu * mu < 0.0
            var = max(total_sq / n - mu * mu, 0.0)
            floored += math.sqrt(var) < 1e-9
            sigma = max(math.sqrt(var), 1e-9)
            z = abs(value - mu) / sigma
            scores.append(math.erf(z / math.sqrt(2.0)))
        else:
            scores.append(0.5)
        kept.append(value)
        total += value
        total_sq += value * value
        if len(kept) > window:
            old = kept.popleft()
            total -= old
            total_sq -= old * old
    return scores, clamped, floored


class TestWindowedGaussianBits:
    """The step computes the same IEEE operations in the same order as
    ``windowed_gaussian_reference``: every score has the same bits."""

    @staticmethod
    def check(values, window):
        det = WindowedGaussianDetector(window=window)
        got = [det.step(i, v).hex() for i, v in enumerate(values)]
        expected, clamped, floored = windowed_gaussian_reference(values, window)
        assert got == [s.hex() for s in expected]
        return clamped, floored

    def test_first_two_records(self):
        self.check([3.0, -1.0], window=10)
        self.check([-0.0], window=2)

    def test_flat_window_floors_sigma(self):
        # the variance is exactly 0, so sigma is the 1e-9 floor; the last
        # values leave the flat level by less and by more than the floor
        values = [2.5] * 50 + [2.5 + 1e-15, 2.5 - 4e-9, 2.5, 7.0]
        clamped, floored = self.check(values, window=20)
        assert floored >= 48

    def test_cancellation_clamps_the_variance(self):
        # at a 1e8 offset sumsq / n - mu**2 cancels to a negative number on
        # most steps, so the clamp to 0 runs
        values = (1e8 + np.random.default_rng(0).standard_normal(2000)).tolist()
        clamped, floored = self.check(values, window=6000)
        assert clamped > 1000 and floored > 1000

    @pytest.mark.parametrize("window", [2, 3, 17])
    def test_eviction_past_the_window(self, window):
        rng = random.Random(window)
        values = [rng.uniform(-5.0, 5.0) for _ in range(300)]
        values += [-0.0, 0.0, 1e-300, -1e-300, 40.0, 0.5]
        self.check(values, window)


class TestWindowedGaussianScoresGolden:
    # sha256 of each windowed_gaussian score CSV for this corpus, with a
    # window shorter than its 1000-record files; the detector's step must
    # keep them byte-identical
    SCORES_SHA256 = {
        "degradation_00.csv": "d1eb9cef9d78d6849fda805d966b719067170129e3e3df4e1363087eda7feff0",
        "degradation_01.csv": "196b93d245b0c038d84f7c32ad62f111092cb8c92c9e730a202ae812809c3bb1",
        "degradation_02.csv": "f4117a19a98cb6bb27be862efecaac3ace347a0d0356e19232dbc9c19338b747",
    }

    def test_scores_unchanged(self, tmp_path):
        corpus, scores = tmp_path / "corpus", tmp_path / "scores"
        assert main(["synth", "--mode", "generate", "--output", str(corpus),
                     "--files", "3", "--duration", "20", "--sample-rate", "50",
                     "--seed", "5"]) == 0
        assert main(["run", "--corpus", str(corpus), "--output", str(scores),
                     "--detector", "windowed_gaussian", "--seed", "1",
                     "--param", "window=200"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(scores.glob("*.csv"))}
        assert digests == self.SCORES_SHA256


class TestHtmDetector:
    def test_requires_range_or_calibration(self):
        det = HtmDetector({}, seed=0)
        with pytest.raises(ValidationError):
            det.step(T0, 1.0)

    def test_fixed_range_skips_calibration(self):
        det = HtmDetector({"value_min": 0.0, "value_max": 10.0}, seed=0)
        s = det.step(T0, 5.0)
        assert 0.0 <= s <= 1.0

    def test_raw_mode_emits_prediction_error(self):
        det = HtmDetector({"value_min": 0.0, "value_max": 10.0}, seed=0,
                          use_likelihood=False)
        # the very first record cannot have been predicted
        assert det.step(T0, 5.0) == 1.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            HtmDetector({"nonsense": 1}, seed=0)

    def test_raw_mode_leaves_likelihood_alone(self):
        det = HtmDetector({"value_min": 0.0, "value_max": 10.0}, seed=0,
                          use_likelihood=False)
        for t, v in series(range(20)):
            det.step(t, v % 10)
        assert len(det.likelihood_state) == 0

    def test_raw_mode_still_checks_likelihood_settings(self):
        with pytest.raises(ValidationError, match="short_window"):
            build_detector(DetectorConfig("htm_raw", {"likelihood_short_window": "0"}))


# for every HTM setting: a valid value other than its layer's default, as
# text, the value it parses to, and where a built detector shows it
NON_DEFAULT = {
    "encoder_bits": ("256", 256, lambda d: d.encoder_cfg.n_bits),
    "encoder_width": ("31", 31, lambda d: d.encoder_cfg.w_active),
    # a stated range sets the finest resolution, its width over n_bits - w_active
    "value_min": ("-3", 4.0 / 379, lambda d: d.encoder_cfg.resolution),
    "value_max": ("5", 6.0 / 379, lambda d: d.encoder_cfg.resolution),
    "n_columns": ("1024", 1024, lambda d: d.sp.n_columns),
    "k_active": ("20", 20, lambda d: d.sp.k_active),
    "sp_potential_fraction": ("0.25", 0.25, lambda d: d.sp.pool.shape[1] / d.sp.n_input),
    "sp_connect_threshold": ("0.3", 0.3, lambda d: d.sp.connect_threshold),
    "sp_perm_inc": ("0.07", 0.07, lambda d: d.sp.perm_inc),
    "sp_perm_dec": ("0.02", 0.02, lambda d: d.sp.perm_dec),
    "m_cells": ("16", 16, lambda d: d.tm.m_cells),
    "tm_activation_threshold": ("9", 9, lambda d: d.tm.activation_threshold),
    "tm_connect_threshold": ("0.4", 0.4, lambda d: d.tm.connect_threshold),
    "tm_initial_permanence": ("0.3", 0.3, lambda d: d.tm.initial_permanence),
    "tm_perm_inc": ("0.15", 0.15, lambda d: d.tm.perm_inc),
    "tm_perm_dec": ("0.2", 0.2, lambda d: d.tm.perm_dec),
    "tm_perm_punish": ("0.05", 0.05, lambda d: d.tm.perm_punish),
    "tm_sample_size": ("25", 25, lambda d: d.tm.sample_size),
    "tm_max_segments_per_cell": ("64", 64, lambda d: d.tm.max_segments_per_cell),
    "tm_max_synapses_per_segment": ("50", 50, lambda d: d.tm.max_synapses_per_segment),
    "likelihood_capacity": ("500", 500, lambda d: d.likelihood_state.capacity),
    "likelihood_short_window": ("20", 20, lambda d: d.likelihood_state.short_window),
}


class TestHtmSettings:
    def test_every_setting_has_a_case(self):
        assert set(NON_DEFAULT) == set(_HTM_SETTINGS)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_setting_reaches_its_layer(self, key):
        text, expected, shown = NON_DEFAULT[key]
        default = shown(HtmDetector({"value_min": "-1", "value_max": "1"}))
        assert default != expected
        det = HtmDetector({"value_min": "-1", "value_max": "1", key: text})
        assert shown(det) == expected and type(shown(det)) is type(expected)
        assert det.sp.n_input == det.encoder_cfg.n_bits

    def test_defaults(self):
        # each layer's defaults written out, so that a changed default shows here
        det = HtmDetector({})
        det.calibrate([0.0, 1.0])
        assert (det.encoder_cfg.n_bits, det.encoder_cfg.w_active) == (400, 21)
        assert det.tm.state_dict()["params"] == {
            "n_columns": 2048, "m_cells": 32, "activation_threshold": 13,
            "connect_threshold": 0.5, "initial_permanence": 0.21,
            "perm_inc": 0.1, "perm_dec": 0.1, "perm_punish": 0.01,
            "sample_size": 20, "max_segments_per_cell": 128,
            "max_synapses_per_segment": 40,
        }
        sp = det.sp
        assert (sp.n_input, sp.n_columns, sp.k_active, sp.pool.shape[1]) == (400, 2048, 40, 200)
        assert (sp.connect_threshold, sp.perm_inc, sp.perm_dec) == (0.5, 0.05, 0.008)
        lk = det.likelihood_state
        assert (lk.capacity, lk.short_window) == (1000, 10)


class TestBuildDetector:
    @pytest.mark.parametrize("kind,cls", [
        ("null", NullDetector),
        ("random", RandomDetector),
        ("threshold", ThresholdDetector),
        ("windowed_gaussian", WindowedGaussianDetector),
        ("htm_hd", HtmDetector),
        ("htm_raw", HtmDetector),
    ])
    def test_factory_kinds(self, kind, cls):
        assert isinstance(build_detector(DetectorConfig(kind, {})), cls)

    def test_likelihood_flag_follows_kind(self):
        assert build_detector(DetectorConfig("htm_hd", {})).use_likelihood
        assert not build_detector(DetectorConfig("htm_raw", {})).use_likelihood

    @pytest.mark.parametrize("kind, params, message", [
        ("htm_hd", {"m_cells": 2.5}, "m_cells must be an integer, got 2.5"),
        ("htm_hd", {"m_cells": True}, "m_cells must be an integer, got True"),
        ("htm_hd", {"n_columns": "abc"}, "n_columns must be an integer, got 'abc'"),
        ("htm_hd", {"value_min": "low", "value_max": 1.0},
         "value_min must be a finite number, got 'low'"),
        ("htm_hd", {"sp_perm_inc": False}, "sp_perm_inc must be a finite number, got False"),
        ("htm_hd", {"tm_perm_inc": math.nan}, "tm_perm_inc must be a finite number, got nan"),
        ("htm_hd", {"value_min": -math.inf, "value_max": 1.0},
         "value_min must be a finite number, got -inf"),
        ("windowed_gaussian", {"window": 2.5}, "window must be an integer, got 2.5"),
        ("threshold", {"rms_window": "abc"}, "rms_window must be an integer, got 'abc'"),
        ("threshold", {"threshold": "high"}, "threshold must be a finite number, got 'high'"),
    ])
    def test_non_numeric_settings_name_key_and_value(self, kind, params, message):
        with pytest.raises(ValidationError, match=message):
            build_detector(DetectorConfig(kind, params))

    def test_numeric_text_is_accepted(self):
        det = build_detector(DetectorConfig(
            "htm_raw", {"n_columns": "64", "k_active": 4, "sp_perm_inc": "0.1"}))
        assert det.sp.n_columns == 64 and det.sp.perm_inc == 0.1


class TestRunFile:
    def test_score_count_and_training_suppression(self):
        recs = as_columns(series(range(100)))
        scores = run_file(DetectorConfig("null", {}), recs, train_fraction=0.15)
        assert len(scores) == 100
        assert scores[:15] == [0.0] * 15
        assert scores[15:] == [0.5] * 85

    def test_zero_train_fraction_scores_everything(self):
        recs = as_columns(series(range(10)))
        scores = run_file(DetectorConfig("null", {}), recs, train_fraction=0.0)
        assert scores == [0.5] * 10

    def test_calibration_never_sees_the_scored_stream(self):
        recs = as_columns(series(range(10)))
        with pytest.raises(DataError):
            run_file(DetectorConfig("htm_hd", {"n_columns": 64, "k_active": 4}),
                     recs, train_fraction=0.0)
        with pytest.raises(DataError):
            run_file(DetectorConfig("threshold", {}), recs, train_fraction=0.05)

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_no_look_ahead(self, kind):
        """Changing the records after k, at equal length, leaves the first k
        scores unchanged, for k inside, at the end of and past the 60-record
        training prefix."""
        rng = np.random.default_rng(2)
        base = np.sin(np.arange(400) / 5.0) + rng.normal(0.0, 0.05, 400)
        cfg = DetectorConfig(kind, {}, seed=3)
        scores = run_file(cfg, as_columns(series(base)), 0.15)
        for k in (20, 60, 61, 200):
            changed = base.copy()
            changed[k:] = rng.normal(3.0, 1.0, len(base) - k)
            assert run_file(cfg, as_columns(series(changed)), 0.15)[:k] == scores[:k]

    def test_zero_train_fraction_with_explicit_calibration(self):
        recs = as_columns(series(range(10)))
        scores = run_file(DetectorConfig("threshold", {"threshold": 4.5}), recs,
                          train_fraction=0.0)
        assert scores == [0.0] * 5 + [1.0] * 5

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            run_file(DetectorConfig("null", {}), as_columns([]))

    def test_out_of_order_timestamps_rejected(self):
        recs = series(range(5))
        recs[3] = (recs[1][0] - timedelta(seconds=1), 0.0)
        with pytest.raises(StreamError):
            run_file(DetectorConfig("null", {}), as_columns(recs))

    def test_out_of_order_pairs_name_the_record(self):
        recs = series(range(5))
        recs[3] = (recs[1][0] - timedelta(seconds=1), 0.0)
        with pytest.raises(StreamError, match="out of order at record 3"):
            run_file(DetectorConfig("null", {}), as_columns(recs))

    def test_bad_train_fraction_rejected(self):
        with pytest.raises(ValidationError):
            run_file(DetectorConfig("null", {}), as_columns(series([1.0])), train_fraction=1.0)

    def test_seeded_rerun_is_identical(self):
        recs = as_columns(series([0, 5, 9, 2, 7, 4] * 30))
        cfg = DetectorConfig("htm_hd", {}, seed=13)
        assert run_file(cfg, recs) == run_file(cfg, recs)

    def test_scores_within_unit_interval(self):
        recs = as_columns(series([0, 5, 9, 2, 7, 4] * 20))
        for kind in ("htm_hd", "htm_raw", "windowed_gaussian", "threshold"):
            scores = run_file(DetectorConfig(kind, {}, seed=1), recs)
            assert all(0.0 <= s <= 1.0 for s in scores)
