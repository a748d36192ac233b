"""PSD-mapping synthesizer and the degradation generator."""

import numpy as np
import pytest

from htmpm.errors import DataError, ValidationError
from htmpm.psd_synth import (DegradationModel, SynthSpec,
                             generate_degradation, psd_map)

FS = 256.0
L = 256


def spec(**kwargs):
    defaults = dict(window_len=L, hop=L, bin_size=8.0, sample_rate=FS,
                    taper="rect")
    defaults.update(kwargs)
    return SynthSpec(**defaults)


def band_power(sig, lo, hi, fs=FS):
    spectrum = np.fft.rfft(sig)
    freqs = np.fft.rfftfreq(len(sig), d=1.0 / fs)
    mask = (freqs >= lo) & (freqs < hi)
    return float(np.sum(np.abs(spectrum[mask]) ** 2))


class TestSynthSpec:
    def test_window_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            spec(window_len=300)

    def test_hop_bounded_by_window(self):
        with pytest.raises(ValidationError):
            spec(hop=L + 1)
        with pytest.raises(ValidationError):
            spec(hop=0)

    def test_bin_size_at_least_fft_resolution(self):
        with pytest.raises(ValidationError):
            spec(bin_size=0.5)  # resolution is fs/L = 1.0 Hz

    def test_unknown_taper_rejected(self):
        with pytest.raises(ValidationError):
            spec(taper="kaiser")

    @pytest.mark.parametrize("kwargs", [
        dict(sample_rate=float("nan")), dict(sample_rate=float("inf")),
        dict(sample_rate=0.0), dict(bin_size=float("nan")),
        dict(bin_size=float("inf")),
    ])
    def test_rates_must_be_finite_and_positive(self, kwargs):
        with pytest.raises(ValidationError, match="finite and positive"):
            spec(**kwargs)


class TestPsdMapIdentity:
    def target(self, n):
        t = np.arange(n) / FS
        return np.sin(2 * np.pi * 32 * t) + 0.5 * np.sin(2 * np.pi * 96 * t)

    def test_stationary_bearing_reconstructs_target_rect(self):
        n = 4 * L
        target = self.target(n)
        out = psd_map(np.ones(n), target, spec())
        rel = np.sqrt(np.mean((out - target) ** 2) / np.mean(target ** 2))
        assert rel < 1e-6

    def test_stationary_bearing_reconstructs_target_hann_overlap(self):
        n = 4 * L
        target = self.target(n)
        out = psd_map(np.ones(n), target, spec(taper="hann", hop=L // 2))
        rel = np.sqrt(np.mean((out - target) ** 2) / np.mean(target ** 2))
        assert rel < 1e-6

    def test_output_length_matches_target(self):
        n = 3 * L + 17
        out = psd_map(np.ones(n), self.target(n), spec())
        assert len(out) == n

    def test_output_finite(self):
        rng = np.random.default_rng(0)
        out = psd_map(rng.normal(size=2 * L), rng.normal(size=2 * L), spec())
        assert np.all(np.isfinite(out))


class TestPsdMapScaling:
    def test_amplitude_doubling_quadruples_band_power(self):
        n = 4 * L
        t = np.arange(n) / FS
        target = np.sin(2 * np.pi * 32 * t) + 0.5 * np.sin(2 * np.pi * 96 * t)
        amp = np.where(np.arange(n) < L, 1.0, 2.0)
        bearing = amp * np.sin(2 * np.pi * 32 * t)
        out = psd_map(bearing, target, spec())
        w_out, w_tgt = out[L:2 * L], target[L:2 * L]
        ratio = band_power(w_out, 28, 36) / band_power(w_tgt, 28, 36)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_untouched_bands_preserved(self):
        n = 4 * L
        t = np.arange(n) / FS
        target = np.sin(2 * np.pi * 32 * t) + 0.5 * np.sin(2 * np.pi * 96 * t)
        amp = np.where(np.arange(n) < L, 1.0, 2.0)
        bearing = amp * np.sin(2 * np.pi * 32 * t)
        out = psd_map(bearing, target, spec())
        w_out, w_tgt = out[L:2 * L], target[L:2 * L]
        ratio = band_power(w_out, 92, 100) / band_power(w_tgt, 92, 100)
        assert abs(ratio - 1.0) < 0.01

    def test_ratio_clamp_bounds_explosions(self):
        n = 3 * L
        t = np.arange(n) / FS
        bearing = np.concatenate([
            1e-9 * np.sin(2 * np.pi * 32 * t[:L]),
            1e3 * np.sin(2 * np.pi * 32 * t[L:]),
        ])
        target = np.sin(2 * np.pi * 32 * t)
        out = psd_map(bearing, target, spec())
        w_out, w_tgt = out[L:2 * L], target[L:2 * L]
        ratio = band_power(w_out, 28, 36) / band_power(w_tgt, 28, 36)
        assert ratio <= 100.0 * 1.01  # clamp of 10 on amplitude, 100 on power

    def test_short_inputs_rejected(self):
        with pytest.raises(DataError):
            psd_map(np.ones(L), np.ones(L - 1), spec())
        with pytest.raises(DataError):
            psd_map(np.ones(L - 1), np.ones(L), spec())


class TestDegradationModel:
    def test_breakpoints_must_be_ordered(self):
        with pytest.raises(ValidationError):
            DegradationModel(baseline_sigma=0.1, fault_freqs=(10.0,),
                             growth=((5.0, 1.0), (2.0, 2.0)))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValidationError):
            DegradationModel(baseline_sigma=-0.1, fault_freqs=(), growth=())


class TestGenerateDegradation:
    def test_zero_growth_is_stationary_noise(self):
        model = DegradationModel(baseline_sigma=0.5, fault_freqs=(10.0,),
                                 growth=())
        values, labels = generate_degradation(model, duration=20.0,
                                              sample_rate=100.0, seed=4)
        assert labels == []
        assert len(values) == 2000
        assert np.std(values) == pytest.approx(0.5, rel=0.1)

    def test_breakpoint_rms_matches_analytic_value(self):
        model = DegradationModel(baseline_sigma=0.1, fault_freqs=(10.0,),
                                 growth=((10.0, 2.0),))
        values, labels = generate_degradation(model, duration=20.0,
                                              sample_rate=200.0, seed=4)
        assert labels == [10.0]
        post = values[2000:]
        expected = np.sqrt(0.1 ** 2 + 2.0 ** 2 / 2)
        assert np.sqrt(np.mean(post ** 2)) == pytest.approx(expected, rel=0.02)

    def test_deterministic_per_seed(self):
        model = DegradationModel(baseline_sigma=0.2, fault_freqs=(12.0,),
                                 growth=((5.0, 1.0),))
        a, _ = generate_degradation(model, 10.0, 50.0, seed=9)
        b, _ = generate_degradation(model, 10.0, 50.0, seed=9)
        c, _ = generate_degradation(model, 10.0, 50.0, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_duration_must_be_positive(self):
        model = DegradationModel(baseline_sigma=0.1, fault_freqs=(), growth=())
        with pytest.raises(ValidationError):
            generate_degradation(model, 0.0, 50.0)

    @pytest.mark.parametrize("duration, rate", [
        (float("nan"), 50.0), (float("inf"), 50.0), (-1.0, 50.0),
        (10.0, float("nan")), (10.0, float("inf")), (10.0, 0.0), (10.0, -50.0),
        (1e-9, 50.0),
    ])
    def test_bad_duration_or_rate_rejected(self, duration, rate):
        model = DegradationModel(baseline_sigma=0.1, fault_freqs=(), growth=())
        with pytest.raises(ValidationError):
            generate_degradation(model, duration, rate)

    def test_sample_count_overflow_names_both_values(self):
        # each value is finite; their product, the sample count, is not
        model = DegradationModel(baseline_sigma=0.1, fault_freqs=(), growth=())
        with pytest.raises(ValidationError, match=r"^1e\+300 s at 2e\+300 Hz overflows"):
            generate_degradation(model, 1e300, 2e300)
