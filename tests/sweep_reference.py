"""The scorer's threshold sweep as it was before it held each column once:
per-file columns concatenated, int64 window ids and times, and each profile's
candidates and totals taken from full-size copies. ``tests/test_nab.py``
requires the scorer to give the same thresholds and scores as these, bit
for bit."""

import math

import numpy as np

from htmpm.errors import ValidationError
from htmpm.nab import _NULL_SCORE, BenchmarkResult, normalize
from htmpm.series import _micros


class Corpus:
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

    def oracle_scores(self):
        scores = np.zeros(len(self.window))
        ids, first = np.unique(self.window, return_index=True)
        scores[first[ids >= 0]] = 1.0
        return scores


class Sweep:
    def __init__(self, corpus, scores):
        tp = corpus.window >= 0
        order = np.lexsort((np.where(tp, corpus.times, 0), tp, -scores))
        window = corpus.window[order]
        det = np.flatnonzero(window >= 0)
        det = det[np.argsort(window[det], kind="stable")]
        w = window[det]
        key = np.unique(corpus.times[order][det], return_inverse=True)[1] - w * len(det)
        earliest = np.ones(len(det), dtype=bool)
        earliest[1:] = key[1:] < np.minimum.accumulate(key)[:-1]
        det, w = det[earliest], w[earliest]
        keep = window < 0
        keep[det] = True
        self.detections = (np.cumsum(keep) - 1)[det]
        self.previous = np.full(len(det), -1)
        same = np.flatnonzero(w[1:] == w[:-1])
        self.previous[same + 1] = self.detections[same]
        self.curve = corpus.curve[order][keep]
        self.n_windows = corpus.n_windows
        self.candidates = np.unique(np.concatenate((scores, (0.0, 1.0))))[::-1]
        self.reached = np.searchsorted(-scores[order][keep], -self.candidates, side="right")

    def best(self, profile):
        value = (profile.a_tp - profile.a_fp) * self.curve
        delta = value.copy()
        before = np.where(self.previous >= 0, value[self.previous], profile.a_fn)
        delta[self.detections] = value[self.detections] - before
        totals = np.cumsum(np.concatenate(((self.n_windows * profile.a_fn,), delta)))
        totals = totals[self.reached]
        k = int(np.argmax(totals))
        return float(self.candidates[k]) + 0.0, float(totals[k])


def classify(outputs, windows_by_file):
    corpus = Corpus({name: times for name, (times, _) in outputs.items()}, windows_by_file)
    return corpus, np.concatenate([scores for _, scores in outputs.values()], dtype=float)


def optimize_threshold(outputs, windows_by_file, profile):
    return Sweep(*classify(outputs, windows_by_file)).best(profile)


def benchmark(detector_name, outputs, windows_by_file, profiles):
    corpus, scores = classify(outputs, windows_by_file)
    streams = (scores, np.full(len(corpus.window), _NULL_SCORE), corpus.oracle_scores())
    detector, null, oracle = ([Sweep(corpus, s).best(p) for p in profiles] for s in streams)
    return [
        BenchmarkResult(detector_name, profile.name, raw, normalize(raw, null_raw, perfect_raw),
                        threshold)
        for profile, (threshold, raw), (_, null_raw), (_, perfect_raw)
        in zip(profiles, detector, null, oracle)
    ]
