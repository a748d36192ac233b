"""Synthetic failure generation.

psd_map transplants the window-to-window power trajectory of a degrading
bearing signal onto a clean target signal: per sliding window, the ratio of
consecutive per-bin power values of the bearing signal scales the matching
frequency bins of the target window. Bins whose bearing power is steady
(ratio 1) leave the target untouched, so the target's own spectral content
is preserved.

generate_degradation is a desk-scale stand-in for run-to-failure vibration
data: Gaussian noise plus fault-frequency sinusoids whose amplitudes step
up on a schedule, each step emitting an anomaly label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ValidationError

# the largest factor, and 1 / it the smallest, by which a bin's amplitude
# may change from one window to the next
RATIO_CLAMP = 10.0
# the bin power below which a ratio's terms count as this floor
POWER_FLOOR = 1e-12

_TAPERS = {
    "hann": lambda n: np.hanning(n + 1)[:n] if n > 1 else np.ones(n),
    "rect": np.ones,
}


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class SynthSpec:
    window_len: int
    hop: int
    bin_size: float
    sample_rate: float
    taper: str = "hann"

    def __post_init__(self):
        if self.window_len <= 0 or self.window_len & (self.window_len - 1):
            raise ValidationError(f"window_len must be a power of two, got {self.window_len}")
        if not 0 < self.hop <= self.window_len:
            raise ValidationError("need 0 < hop <= window_len")
        _check_positive("sample_rate", self.sample_rate)
        _check_positive("bin_size", self.bin_size)
        if self.bin_size < self.sample_rate / self.window_len:
            raise ValidationError(
                f"bin_size {self.bin_size} finer than FFT resolution "
                f"{self.sample_rate / self.window_len}"
            )
        if self.taper not in _TAPERS:
            raise ValidationError(f"unknown taper {self.taper!r}; use one of {sorted(_TAPERS)}")


def _bin_indices(spec: SynthSpec) -> np.ndarray:
    """Coarse frequency-bin index for every rfft coefficient."""
    freqs = np.fft.rfftfreq(spec.window_len, d=1.0 / spec.sample_rate)
    return np.floor(freqs / spec.bin_size).astype(np.int64)


def psd_map(bearing: np.ndarray, target: np.ndarray, spec: SynthSpec) -> np.ndarray:
    """Scale each target window's spectrum by the bearing signal's per-bin
    amplitude ratio between consecutive windows (first window: ratio 1).

    Windows are taken with the spec's taper and hop and recombined by
    overlap-add, normalized by the accumulated taper envelope so that the
    identity case (all ratios 1) reconstructs the target exactly up to
    floating-point error. Output length equals the target length.
    """
    bearing = np.asarray(bearing, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    L = spec.window_len
    if len(target) < L:
        raise DataError(f"target shorter ({len(target)}) than window ({L})")
    if len(bearing) < L:
        raise DataError(f"bearing signal shorter ({len(bearing)}) than window ({L})")

    taper = _TAPERS[spec.taper](L)
    bins = _bin_indices(spec)
    n_bins = int(bins.max()) + 1

    out = np.zeros(len(target))
    envelope = np.zeros(len(target))
    prev_power = None
    for start in range(0, len(target) - L + 1, spec.hop):
        b_start = min(start, len(bearing) - L)  # hold the last frame if shorter
        b_frame = bearing[b_start:b_start + L]
        spectrum_b = np.fft.rfft(b_frame * taper)
        power = np.bincount(bins, weights=np.abs(spectrum_b) ** 2, minlength=n_bins)
        if prev_power is None:
            ratios = np.ones(n_bins)
        else:
            ratios = np.sqrt(
                np.maximum(power, POWER_FLOOR) / np.maximum(prev_power, POWER_FLOOR)
            )
            np.clip(ratios, 1.0 / RATIO_CLAMP, RATIO_CLAMP, out=ratios)
        prev_power = power

        spectrum_s = np.fft.rfft(target[start:start + L] * taper) * ratios[bins]
        out[start:start + L] += np.fft.irfft(spectrum_s, n=L)
        envelope[start:start + L] += taper

    covered = envelope > 1e-12
    out[covered] /= envelope[covered]
    # tail samples never covered by a full window pass through unchanged
    out[~covered] = target[~covered]
    if not np.all(np.isfinite(out)):
        raise DataError("psd_map produced non-finite samples")
    return out


@dataclass(frozen=True)
class DegradationModel:
    """Noise floor plus fault sinusoids with a stepped amplitude schedule.

    growth is a list of (time_seconds, amplitude) breakpoints; the amplitude
    is 0 before the first one, applies from its breakpoint onward, and every
    breakpoint is an anomaly label."""

    baseline_sigma: float
    fault_freqs: tuple[float, ...]
    growth: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.baseline_sigma < 0:
            raise ValidationError("baseline_sigma must be >= 0")
        times = [t for t, _ in self.growth]
        if times != sorted(times):
            raise ValidationError("growth breakpoints must be in time order")


def generate_degradation(model: DegradationModel, duration: float,
                         sample_rate: float, seed: int = 0):
    """Synthesize a degradation run; returns (values, label_times).

    values is a float array of duration * sample_rate samples; label_times
    are the growth breakpoints in seconds. Deterministic for a given seed.
    """
    _check_positive("duration", duration)
    _check_positive("sample_rate", sample_rate)
    if not math.isfinite(duration * sample_rate):
        raise ValidationError(f"{duration} s at {sample_rate} Hz overflows the sample count")
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ValidationError(f"{duration} s at {sample_rate} Hz is no sample")
    t = np.arange(n) / sample_rate
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, model.baseline_sigma, size=n)

    amplitude = np.zeros(n)
    for bp_time, bp_amp in model.growth:
        amplitude[t >= bp_time] = bp_amp
    for i, freq in enumerate(model.fault_freqs):
        phase = rng.uniform(0, 2 * np.pi)
        values += amplitude * np.sin(2 * np.pi * freq * t + phase + i)
    labels = [bp_time for bp_time, _ in model.growth]
    return values, labels
