"""NAB-style benchmark scoring.

Labels (anomaly instants) become anomaly windows; detections are scored by
a scaled sigmoid of their position relative to the window, early in-window
detections earning close to the full credit and detections past the window
turning into penalties. Missed windows cost the false-negative weight.
Thresholds are optimized per profile over the whole corpus, and raw scores
are normalized to 0-100 against the null detector and a perfect oracle.

Score streams are columns and nothing else: each file's stream is a
``(times, scores)`` tuple of int64 microsecond timestamps and float64
scores, as ``series.read_scores`` gives them, and ``oracle_outputs`` and
``null_outputs`` take each file's times and return streams in that same
form. Anomaly windows stay ``datetime``. Each file is classified once:
a binary search over the window starts finds the window holding each record
and one over the window ends the last window before it, and the profile-free
part of the curve, 2/(1+e^{5y}) - 1, is computed once per record. Every
profile, and the detector, null and oracle streams, share that
classification; a threshold sweep over every candidate is then one sort
and one cumulative sum. A file's windows must be disjoint (``make_windows``
merges overlapping ones); overlapping windows are rejected. The
brute-force reference the sweep is tested against, one file at one
threshold by direct scans, is ``score_run`` in ``tests/test_nab.py``.

Memory: ``benchmark`` empties the ``outputs`` it is given, copying each
file's columns into preallocated corpus-order columns as it classifies the
file, so each record's columns are held once. Timestamps do not outlive
classification; a 32-bit dense rank of each in-window record's time
stands for them in every sort. The peak comes in the detector stream's
sweep, which holds per record: the corpus's ``window`` and ``rank``
(int32, 4 bytes each) and ``curve`` (float64, 8); the stream's scores
(float64, 8); the sweep order (intp, 8); and the ``curve`` and score of
each record the sweep keeps (float64, 8 each). That is about 48 bytes a
record, and ``tests/test_cli.py`` bounds ``cmd_score`` at 70.

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


# window ids and time ranks are int32, which bounds a corpus's record count
_MAX_RECORDS = np.iinfo(np.int32).max


def _disjoint_windows(names, windows_by_file) -> dict[str, list[AnomalyWindow]]:
    """Each named file's windows sorted by start; overlapping windows are
    refused, before any record is classified."""
    sorted_windows = {}
    for name in names:
        windows = sorted(windows_by_file.get(name, []), key=lambda w: w.start)
        for a, b in zip(windows, windows[1:]):
            if b.start <= a.end:
                raise ValidationError(
                    f"{name}: windows {a.start}..{a.end} and {b.start}..{b.end} overlap"
                )
        sorted_windows[name] = windows
    return sorted_windows


class _Corpus:
    """Every record of a corpus classified once against its file's windows.

    ``files`` gives ``(name, times)`` in corpus order, ``n`` records in all,
    each file's timestamps as int64 microseconds, and ``windows_by_file`` as
    ``_disjoint_windows`` returns it. Per record, in columns filled in place:
    ``window``, the corpus-wide id of the window holding it (-1 outside
    every window); ``rank``, 0 outside every window and else 1 + the dense
    rank of its time among the corpus's in-window records; and ``curve``,
    the factor 2/(1+e^{5y}) - 1 of ``sigma`` for the holding window or,
    outside, the nearest preceding one, -1 (the full penalty) before any
    window or more than 3 window-lengths late. The times themselves are not
    kept.
    """

    def __init__(self, files, n: int, windows_by_file):
        if n > _MAX_RECORDS:
            raise DataError(f"{n} records: the scorer takes at most {_MAX_RECORDS}")
        self.window = np.full(n, -1, dtype=np.int32)
        self.curve = np.full(n, -1.0)
        self.n_windows = 0
        in_window_times = []
        start = 0
        for name, t in files:
            windows = windows_by_file[name]
            stop = start + len(t)
            if windows:
                starts = _micros([w.start for w in windows])
                ends = _micros([w.end for w in windows])
                i = np.searchsorted(starts, t, side="right") - 1
                inside = (i >= 0) & (t <= ends[i])
                self.window[start:stop][inside] = i[inside] + self.n_windows
                in_window_times.append(t[inside])
                ref = np.where(inside, i, np.searchsorted(ends, t, side="left") - 1)
                near = np.flatnonzero(ref >= 0)
                # seconds past the window's end over its length in seconds:
                # the float operations of the reference score_run
                y = ((t[near] - ends[ref[near]]) / 1e6) / ((ends - starts) / 1e6)[ref[near]]
                scored = y <= 3.0
                self.curve[start:stop][near[scored]] = [2.0 / (1.0 + math.exp(5.0 * v)) - 1.0
                                                        for v in y[scored].tolist()]
                self.n_windows += len(windows)
            start = stop
        self.rank = np.zeros(n, dtype=np.int32)
        if in_window_times:
            ranks = np.unique(np.concatenate(in_window_times), return_inverse=True)[1]
            self.rank[self.window >= 0] = ranks + 1

    def oracle_scores(self) -> np.ndarray:
        """1.0 at the first record of each window, 0.0 everywhere else."""
        scores = np.zeros(len(self.window))
        inside = np.flatnonzero(self.window >= 0)
        first = np.unique(self.window[inside], return_index=True)[1]
        scores[inside[first]] = 1.0
        return scores


class _Sweep:
    """One score stream's threshold sweep, prepared once for every profile.

    Walking the candidates from high to low, each record becomes active at
    its own score: within one score, false positives first in corpus order,
    then in-window detections by (time, corpus order). A detection changes
    the total only when it is its window's earliest active one so far, by
    its value minus that of the window's previous earliest (a_fn for a
    window not yet detected); every other in-window record is dropped.
    ``best`` replays exactly these additions as one cumulative sum, so the
    totals equal a sequential sweep's bit for bit.

    The sweep negates ``scores`` in place, and frees each full-size
    temporary once used. It keeps, per record not
    dropped, in sweep order, ``curve`` and ``thresholds``, the record's
    score. Candidates are not kept: the highest candidate giving a total,
    which wins the tie, is the score of the last record active at it, or
    1.0 with none active. ``inner`` marks the totals that no candidate
    gives: the total after a record the next record ties, and the total
    with none active when a record scores 1.0.
    """

    def __init__(self, corpus: _Corpus, scores: np.ndarray):
        order = np.lexsort((corpus.rank, np.negative(scores, out=scores)))
        window = corpus.window[order]
        det = np.flatnonzero(window >= 0)
        det = det[np.argsort(window[det], kind="stable")]
        w = window[det].astype(np.int64)
        # grouped by window; shifting each later window's time ranks below
        # every earlier one's lets one running minimum serve them all
        key = corpus.rank[order[det]] - w * len(det)
        earliest = np.ones(len(det), dtype=bool)
        earliest[1:] = key[1:] < np.minimum.accumulate(key)[:-1]
        keep = window < 0
        del window
        keep[det[earliest]] = True
        dropped = np.sort(det[~earliest])
        det, w = det[earliest], w[earliest]
        # a detection's position among the records kept
        self.detections = det - np.searchsorted(dropped, det)
        self.previous = np.full(len(det), -1)
        same = np.flatnonzero(w[1:] == w[:-1])
        self.previous[same + 1] = self.detections[same]
        order = order[keep]
        del keep
        self.curve = corpus.curve[order]
        self.thresholds = scores[order]
        del order
        np.negative(self.thresholds, out=self.thresholds)
        self.n_windows = corpus.n_windows
        self.inner = np.zeros(len(self.thresholds) + 1, dtype=bool)
        self.inner[1:-1] = self.thresholds[1:] == self.thresholds[:-1]
        if len(self.thresholds):
            self.inner[0] = self.thresholds[0] >= 1.0

    def best(self, profile: ScoringProfile) -> tuple[float, float]:
        """(threshold, raw score) maximizing the corpus score; ties go to
        the highest threshold."""
        # [n_windows * a_fn, each record's change to the total], summed in place
        totals = np.empty(len(self.curve) + 1)
        totals[0] = self.n_windows * profile.a_fn
        value = np.multiply(self.curve, profile.a_tp - profile.a_fp, out=totals[1:])
        value[self.detections] -= np.where(self.previous >= 0, value[self.previous],
                                           profile.a_fn)
        np.cumsum(totals, out=totals)
        totals[self.inner] = -np.inf
        k = int(np.argmax(totals))
        # + 0.0 turns a -0.0 score into the candidate 0.0
        threshold = float(self.thresholds[k - 1]) + 0.0 if k else 1.0
        return threshold, float(totals[k])


def _classify(outputs: dict, windows_by_file) -> tuple[_Corpus, np.ndarray]:
    """The corpus of ``outputs`` and their scores in its order. Each file's
    entry is removed from ``outputs`` once its columns are copied, so every
    record's columns are held once; a refused corpus leaves ``outputs`` as
    it was."""
    if not outputs:
        raise ValidationError("empty corpus")
    windows = _disjoint_windows(outputs, windows_by_file)
    n = sum(len(times) for times, _ in outputs.values())
    scores = np.empty(n)

    def files():
        start = 0
        for name in list(outputs):
            times, file_scores = outputs.pop(name)
            scores[start:start + len(times)] = file_scores
            start += len(times)
            yield name, times

    return _Corpus(files(), n, windows), scores


def optimize_threshold(outputs: dict[str, tuple], windows_by_file: dict[str, list[AnomalyWindow]],
                       profile: ScoringProfile) -> tuple[float, float]:
    """Sweep every distinct score value (plus 0 and 1) over the whole corpus
    and return (threshold, raw score) maximizing the summed score; ties go
    to the highest threshold. Equivalent to re-scoring the corpus at every
    candidate, but linear in the number of records after one sort."""
    return _Sweep(*_classify(dict(outputs), windows_by_file)).best(profile)


def normalize(raw: float, null_raw: float, perfect_raw: float) -> float:
    """Map a raw corpus score onto 0-100 between the null detector and a
    perfect oracle, clamped at both ends."""
    if perfect_raw <= null_raw:
        raise ValidationError(
            f"degenerate normalization bounds: perfect={perfect_raw}, null={null_raw}"
        )
    return min(max(100.0 * (raw - null_raw) / (perfect_raw - null_raw), 0.0), 100.0)


def oracle_outputs(times_by_file: dict[str, np.ndarray],
                   windows_by_file: dict[str, list[AnomalyWindow]]) -> dict[str, tuple]:
    """Perfect-detector score streams: 1.0 exactly at the first record inside
    each window, 0.0 everywhere else."""
    n = sum(len(times) for times in times_by_file.values())
    windows = _disjoint_windows(times_by_file, windows_by_file)
    scores = _Corpus(times_by_file.items(), n, windows).oracle_scores()
    bounds = np.cumsum([len(times) for times in times_by_file.values()])[:-1]
    return {name: (times, file_scores) for (name, times), file_scores
            in zip(times_by_file.items(), np.split(scores, bounds))}


def null_outputs(times_by_file: dict[str, np.ndarray]) -> dict[str, tuple]:
    return {name: (times, np.full(len(times), _NULL_SCORE))
            for name, times in times_by_file.items()}


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
    tuple of int64 microsecond and float64 columns, as ``read_scores``,
    ``oracle_outputs`` and ``null_outputs`` give, each score in [0, 1].
    ``outputs`` is emptied as each file's columns are copied into corpus
    order; a refused corpus leaves it as it was."""
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
