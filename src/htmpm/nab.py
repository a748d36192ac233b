"""NAB-style benchmark scoring.

Labels (anomaly instants) become anomaly windows; detections are scored by
a scaled sigmoid of their position relative to the window, early in-window
detections earning close to the full credit and detections past the window
turning into penalties. Missed windows cost the false-negative weight.
Thresholds are optimized per profile over the whole corpus, and raw scores
are normalized to 0-100 against the null detector and a perfect oracle.

Score streams are columns: int64 microsecond timestamps and float64
scores, as ``series.read_scores`` gives them. Each file is classified once:
a binary search over the window starts finds the window holding each record
and one over the window ends the last window before it, and the profile-free
part of the curve, 2/(1+e^{5y}) - 1, is computed once per record. Every
profile, and the detector, null and oracle streams, share that
classification; a threshold sweep over every candidate is then one sort
and one cumulative sum. A file's windows must be disjoint (``make_windows``
merges overlapping ones); overlapping windows are rejected. The
brute-force reference the sweep is tested against, one file at one
threshold by direct scans, is ``score_run`` in ``tests/test_nab.py``.

Note on the sigmoid: the scoring curve is (a_tp - a_fp) * (2/(1+e^{5y}) - 1),
which is +~1 at the window's left edge, 0 at its right edge, and saturates
to -(a_tp - a_fp) for detections more than 3 window-lengths late.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import DataError, ValidationError
from .series import _micros


@dataclass(frozen=True)
class AnomalyWindow:
    start: datetime
    end: datetime

    def __post_init__(self):
        if not self.start < self.end:
            raise ValidationError(f"window start must precede end: {self.start}..{self.end}")


@dataclass(frozen=True)
class ScoringProfile:
    """NAB's weights for a true positive, a false positive and a missed
    window. NAB weighs a true negative 0 in every profile, so none is kept."""

    name: str
    a_tp: float
    a_fp: float
    a_fn: float

    def __post_init__(self):
        if self.a_tp <= 0:
            raise ValidationError("a_tp must be positive")
        if self.a_fp > 0 or self.a_fn > 0:
            raise ValidationError("a_fp and a_fn are penalties and must be <= 0")


STANDARD = ScoringProfile("standard", a_tp=1.0, a_fp=-0.11, a_fn=-1.0)
LOW_FP = ScoringProfile("low_fp", a_tp=1.0, a_fp=-0.22, a_fn=-1.0)
LOW_FN = ScoringProfile("low_fn", a_tp=1.0, a_fp=-0.11, a_fn=-2.0)
PROFILES = {p.name: p for p in (STANDARD, LOW_FP, LOW_FN)}


@dataclass(frozen=True)
class BenchmarkResult:
    detector: str
    profile: str
    raw_score: float
    normalized_score: float
    optimized_threshold: float


def make_windows(labels, file_span,
                 window_budget_fraction: float = 0.10) -> list[AnomalyWindow]:
    """One window per label, centered on it, the total window budget split
    evenly across labels. Overlapping windows merge; all clip to the span.
    """
    if not 0.0 < window_budget_fraction < 1.0:
        raise ValidationError("window budget fraction must be in (0, 1)")
    labels = sorted(labels)
    if not labels:
        return []
    span_start, span_end = file_span
    if span_start >= span_end:
        raise DataError(f"degenerate file span {span_start}..{span_end}")
    for t in labels:
        if not span_start <= t <= span_end:
            raise DataError(f"label {t} outside file span")
    half = (span_end - span_start) * window_budget_fraction / len(labels) / 2
    raw = [(max(t - half, span_start), min(t + half, span_end)) for t in labels]
    merged: list[tuple] = []
    for start, end in raw:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return [AnomalyWindow(s, e) for s, e in merged]


def sigma(y: float, profile: ScoringProfile) -> float:
    """Positional scoring curve. y maps the window interior to [-1, 0]
    (left edge -1, right edge 0); positions past the window are positive.
    Saturates to the full penalty beyond y = 3."""
    weight = profile.a_tp - profile.a_fp
    if y > 3.0:
        return -weight
    return weight * (2.0 / (1.0 + math.exp(5.0 * y)) - 1.0)


_NULL_SCORE = 0.5


class _Corpus:
    """Every record of a corpus classified once against its file's windows.

    Files are concatenated in the order given, each file's timestamps given
    as int64 microseconds. Per record: ``times``; ``window``, the
    corpus-wide id of the window holding it (-1 outside every window); and
    ``curve``, the factor 2/(1+e^{5y}) - 1 of ``sigma`` for the holding
    window or, outside, the nearest preceding one, -1 (the full penalty)
    before any window or more than 3 window-lengths late.
    """

    def __init__(self, times_by_file, windows_by_file):
        times, window, curve = [], [], []
        self.n_windows = 0
        for name, t in times_by_file.items():
            windows = sorted(windows_by_file.get(name, []), key=lambda w: w.start)
            for a, b in zip(windows, windows[1:]):
                if b.start <= a.end:
                    raise ValidationError(
                        f"{name}: windows {a.start}..{a.end} and {b.start}..{b.end} overlap"
                    )
            holding = np.full(len(t), -1)
            c = np.full(len(t), -1.0)
            if windows:
                starts = _micros([w.start for w in windows])
                ends = _micros([w.end for w in windows])
                i = np.searchsorted(starts, t, side="right") - 1
                inside = (i >= 0) & (t <= ends[i])
                holding[inside] = i[inside] + self.n_windows
                ref = np.where(inside, i, np.searchsorted(ends, t, side="left") - 1)
                near = np.flatnonzero(ref >= 0)
                # seconds past the window's end over its length in seconds:
                # the float operations of the reference score_run
                y = ((t[near] - ends[ref[near]]) / 1e6) / ((ends - starts) / 1e6)[ref[near]]
                scored = y <= 3.0
                c[near[scored]] = [2.0 / (1.0 + math.exp(5.0 * v)) - 1.0
                                   for v in y[scored].tolist()]
                self.n_windows += len(windows)
            times.append(t)
            window.append(holding)
            curve.append(c)
        self.times = np.concatenate(times or [np.zeros(0, dtype=np.int64)])
        self.window = np.concatenate(window or [np.zeros(0, dtype=np.int64)])
        self.curve = np.concatenate(curve or [np.zeros(0)])

    def oracle_scores(self) -> np.ndarray:
        """1.0 at the first record of each window, 0.0 everywhere else."""
        scores = np.zeros(len(self.window))
        ids, first = np.unique(self.window, return_index=True)
        scores[first[ids >= 0]] = 1.0
        return scores


class _Sweep:
    """One score stream's threshold sweep, prepared once for every profile.

    Walking the candidates from high to low, each record becomes active at
    its own score: within one score, false positives first in corpus order,
    then in-window detections by (time, corpus order). A detection changes
    the total only when it is its window's earliest active one so far, by
    its value minus that of the window's previous earliest (a_fn for a
    window not yet detected). ``best`` replays exactly these additions as
    one cumulative sum, so the totals equal a sequential sweep's bit for bit.
    """

    def __init__(self, corpus: _Corpus, scores: np.ndarray):
        tp = corpus.window >= 0
        order = np.lexsort((np.where(tp, corpus.times, 0), tp, -scores))
        del tp
        window = corpus.window[order]
        det = np.flatnonzero(window >= 0)
        det = det[np.argsort(window[det], kind="stable")]
        w = window[det]
        # grouped by window; shifting each later window's time ranks below
        # every earlier one's lets one running minimum serve them all
        key = np.unique(corpus.times[order][det], return_inverse=True)[1] - w * len(det)
        earliest = np.ones(len(det), dtype=bool)
        earliest[1:] = key[1:] < np.minimum.accumulate(key)[:-1]
        det, w = det[earliest], w[earliest]
        del key, earliest
        keep = window < 0
        del window
        keep[det] = True
        kept = np.cumsum(keep) - 1
        self.detections = kept[det]
        del kept
        self.previous = np.full(len(det), -1)
        same = np.flatnonzero(w[1:] == w[:-1])
        self.previous[same + 1] = self.detections[same]
        self.curve = corpus.curve[order][keep]
        self.n_windows = corpus.n_windows
        self.candidates = np.unique(np.concatenate((scores, (0.0, 1.0))))[::-1]
        self.reached = np.searchsorted(-scores[order][keep], -self.candidates, side="right")

    def best(self, profile: ScoringProfile) -> tuple[float, float]:
        """(threshold, raw score) maximizing the corpus score; ties go to
        the highest threshold."""
        value = (profile.a_tp - profile.a_fp) * self.curve
        delta = value.copy()
        before = np.where(self.previous >= 0, value[self.previous], profile.a_fn)
        delta[self.detections] = value[self.detections] - before
        totals = np.cumsum(np.concatenate(((self.n_windows * profile.a_fn,), delta)))
        totals = totals[self.reached]
        k = int(np.argmax(totals))
        # + 0.0 turns a -0.0 score into the candidate 0.0
        return float(self.candidates[k]) + 0.0, float(totals[k])


def _columns(output) -> tuple[np.ndarray, np.ndarray]:
    """A score stream as (int64 microsecond times, float64 scores): a tuple
    of columns passes as it is, a list of (datetime, score) pairs is
    converted."""
    if isinstance(output, tuple):
        times, scores = output
        return times, np.asarray(scores, dtype=float)
    return _micros([t for t, _ in output]), np.array([s for _, s in output], dtype=float)


def _classify(outputs: dict, windows_by_file) -> tuple[_Corpus, np.ndarray]:
    """The corpus of ``outputs`` and their scores, concatenated in its order."""
    if not outputs:
        raise ValidationError("empty corpus")
    columns = {name: _columns(output) for name, output in outputs.items()}
    corpus = _Corpus({name: times for name, (times, _) in columns.items()}, windows_by_file)
    return corpus, np.concatenate([scores for _, scores in columns.values()])


def optimize_threshold(outputs: dict[str, list], windows_by_file: dict[str, list[AnomalyWindow]],
                       profile: ScoringProfile) -> tuple[float, float]:
    """Sweep every distinct score value (plus 0 and 1) over the whole corpus
    and return (threshold, raw score) maximizing the summed score; ties go
    to the highest threshold. Equivalent to re-scoring the corpus at every
    candidate, but linear in the number of records after one sort."""
    return _Sweep(*_classify(outputs, windows_by_file)).best(profile)


def normalize(raw: float, null_raw: float, perfect_raw: float) -> float:
    """Map a raw corpus score onto 0-100 between the null detector and a
    perfect oracle, clamped at both ends."""
    if perfect_raw <= null_raw:
        raise ValidationError(
            f"degenerate normalization bounds: perfect={perfect_raw}, null={null_raw}"
        )
    return min(max(100.0 * (raw - null_raw) / (perfect_raw - null_raw), 0.0), 100.0)


def oracle_outputs(timestamps_by_file: dict[str, list[datetime]],
                   windows_by_file: dict[str, list[AnomalyWindow]]) -> dict[str, list]:
    """Perfect-detector score streams: 1.0 exactly at the first record inside
    each window, 0.0 everywhere else."""
    corpus = _Corpus({name: _micros(ts) for name, ts in timestamps_by_file.items()},
                     windows_by_file)
    scores = iter(corpus.oracle_scores().tolist())
    return {name: [(t, next(scores)) for t in timestamps]
            for name, timestamps in timestamps_by_file.items()}


def null_outputs(timestamps_by_file: dict[str, list[datetime]]) -> dict[str, list]:
    return {name: [(t, _NULL_SCORE) for t in ts] for name, ts in timestamps_by_file.items()}


def _best_per_profile(corpus: _Corpus, scores: np.ndarray, profiles) -> list:
    """One stream's ``_Sweep.best`` for each profile, from one sweep."""
    sweep = _Sweep(corpus, scores)
    return [sweep.best(profile) for profile in profiles]


def benchmark(detector_name: str, outputs: dict,
              windows_by_file: dict[str, list[AnomalyWindow]],
              profiles) -> list[BenchmarkResult]:
    """Full corpus evaluation: optimize the threshold per profile, then
    normalize against the null detector and the perfect oracle. The corpus
    is classified once; the three streams and every profile share it.

    ``outputs`` maps a file name to its score stream: a ``(times, scores)``
    tuple of int64 microsecond and float64 columns, as ``read_scores``
    gives, or a list of (datetime, score) pairs, as ``oracle_outputs`` and
    ``null_outputs`` give."""
    profiles = list(profiles)
    corpus, scores = _classify(outputs, windows_by_file)
    # one sweep alive at a time: each is dropped before the next is built
    detector = _best_per_profile(corpus, scores, profiles)
    del scores
    null = _best_per_profile(corpus, np.full(len(corpus.window), _NULL_SCORE), profiles)
    oracle = _best_per_profile(corpus, corpus.oracle_scores(), profiles)
    return [
        BenchmarkResult(
            detector=detector_name,
            profile=profile.name,
            raw_score=raw,
            normalized_score=normalize(raw, null_raw, perfect_raw),
            optimized_threshold=threshold,
        )
        for profile, (threshold, raw), (_, null_raw), (_, perfect_raw)
        in zip(profiles, detector, null, oracle)
    ]
