"""Streaming anomaly detectors behind one uniform contract.

Every detector consumes timestamped scalars one at a time and emits one
anomaly score in [0, 1] per record, in order; ``run_file`` steps one
file's ``series.Columns`` through a fresh detector. The HTM detector composes
encoder -> spatial pooler -> temporal memory -> raw prediction error ->
(optionally) HD anomaly likelihood. Active bits pass between those layers
as int index arrays: the encoder's active input bits, then the pooler's
sorted active columns. A fresh detector per file reuses the
spatial pooler's pool, which is drawn once per process (see
``spatial_pooler``). Baselines: windowed Gaussian, threshold, random,
null.

Numeric parameters are checked where they are read: an integer setting
accepts an int or text spelling one, a number setting any real number or
text spelling one; a bool, a fraction for an integer, nan, an infinity or
other text raise ValidationError naming the key. Each HTM setting is one
row of ``_HTM_SETTINGS``, which names its layer, that layer's argument and
its parser; a setting that is not given takes the layer's own default, so
each default is written once, in its layer. The HTM encoder's
``value_min`` and ``value_max`` come together or not at all. ``calibrate``
always works out the encoder's resolution from the training prefix
(``encoder.calibrated_config``); a stated range only sets its finest
value, and lets the detector step without a ``calibrate`` call, as if the
prefix were empty.

``WindowedGaussianDetector.step`` runs once per record, so it is
straight-line float code: locals for the running sums, compares in place
of ``max`` and a module constant for sqrt(2). It computes the IEEE
operations of the formula in its docstring in the same order, so its
scores are bit-identical to the formula's (``tests/test_detectors.py``
keeps the formula as the oracle).
"""

from __future__ import annotations

import math
import numbers
import random
from collections import deque
from dataclasses import dataclass, field
from math import erf, sqrt

from .anomaly import LikelihoodState, update_likelihood
from .encoder import N_BITS, W_ACTIVE, ScalarEncoderConfig, calibrated_config, encode
from .errors import DataError, StreamError, ValidationError
from .series import Columns
from .spatial_pooler import SpatialPooler
from .temporal_memory import TemporalMemory

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DetectorConfig:
    kind: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ValidationError(
                f"unknown detector kind {self.kind!r}; expected one of {DETECTOR_KINDS}"
            )
        allowed, _ = _DETECTORS[self.kind]
        unknown = set(self.parameters) - allowed
        if unknown:
            raise ValidationError(
                f"unknown parameter(s) for {self.kind}: {sorted(unknown)}"
            )
        # numpy's generators, which the seed reaches, take no negative seed
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def _integer(key: str, value) -> int:
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValidationError(f"{key} must be an integer, got {value!r}")


def _number(key: str, value) -> float:
    number = math.nan
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            pass
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        number = float(value)
    if not math.isfinite(number):
        raise ValidationError(f"{key} must be a finite number, got {value!r}")
    return number


# each HTM setting: key -> (layer, that layer's argument, parser). A key
# that is not given takes the layer's own default.
_HTM_SETTINGS = {
    "encoder_bits": ("encoder", "n_bits", _integer),
    "encoder_width": ("encoder", "w_active", _integer),
    "value_min": ("encoder", "value_min", _number),
    "value_max": ("encoder", "value_max", _number),
    "n_columns": ("sp", "n_columns", _integer),
    "k_active": ("sp", "k_active", _integer),
    "sp_potential_fraction": ("sp", "potential_fraction", _number),
    "sp_connect_threshold": ("sp", "connect_threshold", _number),
    "sp_perm_inc": ("sp", "perm_inc", _number),
    "sp_perm_dec": ("sp", "perm_dec", _number),
    "m_cells": ("tm", "m_cells", _integer),
    "tm_activation_threshold": ("tm", "activation_threshold", _integer),
    "tm_connect_threshold": ("tm", "connect_threshold", _number),
    "tm_initial_permanence": ("tm", "initial_permanence", _number),
    "tm_perm_inc": ("tm", "perm_inc", _number),
    "tm_perm_dec": ("tm", "perm_dec", _number),
    "tm_perm_punish": ("tm", "perm_punish", _number),
    "tm_sample_size": ("tm", "sample_size", _integer),
    "tm_max_segments_per_cell": ("tm", "max_segments_per_cell", _integer),
    "tm_max_synapses_per_segment": ("tm", "max_synapses_per_segment", _integer),
    "likelihood_capacity": ("likelihood", "capacity", _integer),
    "likelihood_short_window": ("likelihood", "short_window", _integer),
}

class NullDetector:
    def calibrate(self, values):
        pass

    def step(self, timestamp, value) -> float:
        return 0.5


class RandomDetector:
    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def calibrate(self, values):
        pass

    def step(self, timestamp, value) -> float:
        return self._rng.random()


class ThresholdDetector:
    """Condition-monitoring style: score 1 whenever the feature value
    crosses a fixed level. The level defaults to mean + 4 sigma of the
    training prefix when not given explicitly."""

    def __init__(self, threshold: float | None = None, feature: str = "abs",
                 rms_window: int = 16, calibration_sigmas: float = 4.0):
        if feature not in ("abs", "rms"):
            raise ValidationError(f"feature must be 'abs' or 'rms', got {feature!r}")
        self.threshold = None if threshold is None else _number("threshold", threshold)
        self.feature = feature
        self.rms_window = _integer("rms_window", rms_window)
        if self.rms_window < 1:
            raise ValidationError(f"rms_window must be >= 1, got {self.rms_window}")
        self.calibration_sigmas = _number("calibration_sigmas", calibration_sigmas)
        self._recent: deque[float] = deque()

    def calibrate(self, values):
        if self.threshold is not None:
            return
        feats = [self._featurize(v) for v in values]
        if not feats:
            raise DataError("threshold detector cannot calibrate on empty prefix")
        mu = sum(feats) / len(feats)
        var = sum((f - mu) ** 2 for f in feats) / len(feats)
        self.threshold = mu + self.calibration_sigmas * math.sqrt(var)
        self._recent.clear()

    def _featurize(self, value: float) -> float:
        if self.feature == "abs":
            return abs(value)
        self._recent.append(value * value)
        if len(self._recent) > self.rms_window:
            self._recent.popleft()
        return math.sqrt(sum(self._recent) / len(self._recent))

    def step(self, timestamp, value) -> float:
        if self.threshold is None:
            raise ValidationError("threshold detector used without a threshold")
        return 1.0 if self._featurize(value) >= self.threshold else 0.0


class WindowedGaussianDetector:
    """Score = 1 minus the two-sided Gaussian tail probability of the value
    against the mean/stdev of a sliding window of preceding values:
    erf(|value - mu| / sigma / sqrt(2)), with the variance
    sumsq / n - mu**2 clamped at 0, sigma floored at 1e-9, and 0.5 while
    fewer than two values precede."""

    def __init__(self, window: int = 6000):
        window = _integer("window", window)
        if window < 2:
            raise ValidationError("window must hold at least 2 values")
        self.window = window
        self._values: deque[float] = deque()
        self._sum = 0.0
        self._sumsq = 0.0

    def calibrate(self, values):
        pass

    def step(self, timestamp, value) -> float:
        values = self._values
        n = len(values)
        total = self._sum
        total_sq = self._sumsq
        if n >= 2:
            mu = total / n
            var = total_sq / n - mu * mu
            # as max(var, 0.0) and max(sigma, 1e-9): -0.0 and nan stay
            if var < 0.0:
                var = 0.0
            sigma = sqrt(var)
            if sigma < 1e-9:
                sigma = 1e-9
            score = erf(abs(value - mu) / sigma / _SQRT2)
        else:
            score = 0.5
        values.append(value)
        total += value
        total_sq += value * value
        if n >= self.window:
            old = values.popleft()
            total -= old
            total_sq -= old * old
        self._sum = total
        self._sumsq = total_sq
        return score


class HtmDetector:
    """The full pipeline of the streaming HTM detector.

    With use_likelihood the HD anomaly likelihood is the emitted score;
    without it the raw prediction error is emitted directly.
    """

    def __init__(self, parameters: dict, seed: int = 0, use_likelihood: bool = True):
        if ("value_min" in parameters) != ("value_max" in parameters):
            given, missing = (("value_min", "value_max") if "value_min" in parameters
                              else ("value_max", "value_min"))
            raise ValidationError(f"{given} needs {missing}: give both bounds or neither")
        layers = {"encoder": {}, "sp": {}, "tm": {}, "likelihood": {}}
        for key, value in parameters.items():
            if key not in _HTM_SETTINGS:
                raise ValidationError(f"unknown HTM parameter {key!r}")
            layer, argument, parse = _HTM_SETTINGS[key]
            layers[layer][argument] = parse(key, value)
        self._encoder_args = {"n_bits": N_BITS, "w_active": W_ACTIVE, **layers["encoder"]}
        # with a stated range, the config of an empty prefix until calibrate
        self.encoder_cfg: ScalarEncoderConfig | None = (
            calibrated_config((), **self._encoder_args) if "value_min" in parameters else None)
        self.sp = SpatialPooler(n_input=self._encoder_args["n_bits"], seed=seed,
                                **layers["sp"])
        self.tm = TemporalMemory(n_columns=self.sp.n_columns, **layers["tm"])
        self.use_likelihood = use_likelihood
        # built for htm_raw too, so that its likelihood_* settings are checked
        self.likelihood_state = LikelihoodState(**layers["likelihood"])

    def calibrate(self, values):
        self.encoder_cfg = calibrated_config(values, **self._encoder_args)

    def step(self, timestamp, value) -> float:
        if self.encoder_cfg is None:
            raise ValidationError(
                "HTM detector needs value_min/value_max or a calibrate() call"
            )
        bits = encode(value, self.encoder_cfg)
        raw = self.tm.step(self.sp.compute(bits))
        return update_likelihood(raw, self.likelihood_state) if self.use_likelihood else raw


# each detector kind: the parameters it takes and its constructor
_DETECTORS = {
    "htm_hd": (set(_HTM_SETTINGS),
               lambda cfg: HtmDetector(cfg.parameters, seed=cfg.seed, use_likelihood=True)),
    "htm_raw": (set(_HTM_SETTINGS),
                lambda cfg: HtmDetector(cfg.parameters, seed=cfg.seed, use_likelihood=False)),
    "windowed_gaussian": ({"window"}, lambda cfg: WindowedGaussianDetector(**cfg.parameters)),
    "threshold": ({"threshold", "feature", "rms_window", "calibration_sigmas"},
                  lambda cfg: ThresholdDetector(**cfg.parameters)),
    "random": (set(), lambda cfg: RandomDetector(seed=cfg.seed)),
    "null": (set(), lambda cfg: NullDetector()),
}
DETECTOR_KINDS = tuple(_DETECTORS)


def build_detector(cfg: DetectorConfig):
    _, build = _DETECTORS[cfg.kind]
    return build(cfg)


def run_file(cfg: DetectorConfig, columns: Columns, train_fraction: float = 0.15) -> list[float]:
    """Run a fresh detector over one file's records.

    ``columns`` are the records as ``read_series`` returns them. Each
    record is stepped once, in order, as ``step(timestamp, value)`` with
    the timestamp in int microseconds since 1970-01-01 (naive UTC);
    timestamps out of order are refused before any record is stepped.

    The first train_fraction of records is still fed through the detector
    (online learning), but their emitted scores are forced to 0 so the
    scorer never credits detections inside the training stretch. Only that
    prefix calibrates the detector: with an empty prefix, a detector that
    needs calibration fails rather than look ahead into the scored stream.
    """
    if not len(columns):
        raise DataError("empty series")
    if not 0.0 <= train_fraction < 1.0:
        raise ValidationError(f"train_fraction must be in [0, 1), got {train_fraction}")
    late = columns.times[1:] < columns.times[:-1]
    if late.any():
        raise StreamError(f"timestamps out of order at record {int(late.argmax()) + 1}")
    n_train = int(len(columns) * train_fraction)
    detector = build_detector(cfg)
    values = columns.values.tolist()
    detector.calibrate(values[:n_train])
    step = detector.step
    scores = [step(ts, value) for ts, value in zip(columns.times.tolist(), values)]
    scores[:n_train] = [0.0] * n_train
    return scores
