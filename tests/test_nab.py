"""Benchmark scoring: windows, positional sigmoid, threshold sweep.

``score_run`` below scores one file at one threshold by direct scans: the
brute-force reference that the scorer's sweep is tested against. The
fixtures and references keep (datetime, score) pairs; ``columns`` and
``stamps`` give the scorer the same streams as the columns it takes.
"""

import hashlib
import math
import random
from datetime import datetime, timedelta

import pytest

from htmpm.cli import main
from htmpm.errors import DataError, ValidationError
from htmpm.nab import (LOW_FN, LOW_FP, PROFILES, STANDARD, AnomalyWindow,
                       ScoringProfile, benchmark, make_windows, normalize,
                       null_outputs, optimize_threshold, oracle_outputs,
                       sigma)
from records import as_columns

T0 = datetime(2021, 1, 1)
UNIT = ScoringProfile("unit", a_tp=1.0, a_fp=0.0, a_fn=-1.0)


def ts(minutes):
    return T0 + timedelta(minutes=minutes)


def timeline(n, step_minutes=1):
    return [ts(i * step_minutes) for i in range(n)]


def columns(outputs):
    """(datetime, score) streams as the scorer's (times, scores) columns."""
    converted = {name: as_columns(output) for name, output in outputs.items()}
    return {name: (c.times, c.values) for name, c in converted.items()}


def stamps(times_by_file):
    """Each file's datetimes as the scorer's int64 microsecond column."""
    return {name: as_columns([(t, 0.0) for t in times]).times
            for name, times in times_by_file.items()}


def as_lists(streams):
    return {name: (times.tolist(), scores.tolist()) for name, (times, scores) in streams.items()}


def contains(window, t):
    """A window holds its edges."""
    return window.start <= t <= window.end


def relative_position(t, window):
    """Window interior maps to [-1, 0]; after the window, positive in units
    of the window length."""
    length = (window.end - window.start).total_seconds()
    return (t - window.end).total_seconds() / length


def score_run(output, windows, threshold, profile):
    """Score one file's detector output against its windows.

    ``output`` is a sequence of (timestamp, score) pairs aligned with the
    file's records. Only the earliest detection inside each window counts;
    out-of-window detections are penalized relative to the nearest
    preceding window (full penalty when there is none). Every missed
    window deducts |a_fn|.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")
    windows = sorted(windows, key=lambda w: w.start)
    detected: set[int] = set()
    total = 0.0
    for t, score in output:
        if score < threshold:
            continue
        inside = None
        for i, w in enumerate(windows):
            if contains(w, t):
                inside = i
                break
        if inside is not None:
            if inside not in detected:
                detected.add(inside)
                total += sigma(relative_position(t, windows[inside]), profile)
            continue
        preceding = None
        for w in windows:
            if w.end < t:
                preceding = w
            else:
                break
        if preceding is None:
            total += -(profile.a_tp - profile.a_fp)
        else:
            total += sigma(relative_position(t, preceding), profile)
    total += (len(windows) - len(detected)) * profile.a_fn
    return total


class TestTypes:
    def test_window_ordering_enforced(self):
        with pytest.raises(ValidationError):
            AnomalyWindow(ts(5), ts(5))

    def test_window_containment_inclusive(self):
        w = AnomalyWindow(ts(10), ts(20))
        assert contains(w, ts(10)) and contains(w, ts(20)) and contains(w, ts(15))
        assert not contains(w, ts(9)) and not contains(w, ts(21))

    def test_profile_weight_signs(self):
        with pytest.raises(ValidationError):
            ScoringProfile("bad", a_tp=0.0, a_fp=-0.1, a_fn=-1.0)
        with pytest.raises(ValidationError):
            ScoringProfile("bad", a_tp=1.0, a_fp=0.1, a_fn=-1.0)

    def test_reference_profiles(self):
        assert STANDARD.a_fp == -0.11 and STANDARD.a_fn == -1.0
        assert LOW_FP.a_fp == -0.22
        assert LOW_FN.a_fn == -2.0
        assert set(PROFILES) == {"standard", "low_fp", "low_fn"}


class TestMakeWindows:
    def test_single_label_centered_window(self):
        span = (ts(0), ts(1000))
        [w] = make_windows([ts(500)], span, window_budget_fraction=0.10)
        assert (w.end - w.start) == timedelta(minutes=100)
        assert w.start + (w.end - w.start) / 2 == ts(500)

    def test_budget_split_across_labels(self):
        span = (ts(0), ts(1000))
        windows = make_windows([ts(200), ts(800)], span, 0.10)
        assert all((w.end - w.start) == timedelta(minutes=50) for w in windows)

    def test_no_labels_no_windows(self):
        assert make_windows([], (ts(0), ts(100)), 0.10) == []

    def test_close_labels_merge(self):
        span = (ts(0), ts(1000))
        windows = make_windows([ts(500), ts(510)], span, 0.10)
        assert len(windows) == 1
        assert windows[0].start == ts(475) and windows[0].end == ts(535)

    def test_windows_clipped_to_span(self):
        span = (ts(0), ts(1000))
        [w] = make_windows([ts(0)], span, 0.10)
        assert w.start == ts(0) and w.end == ts(50)

    def test_label_outside_span_rejected(self):
        with pytest.raises(DataError):
            make_windows([ts(2000)], (ts(0), ts(1000)), 0.10)

    def test_degenerate_span_rejected(self):
        with pytest.raises(DataError):
            make_windows([ts(0)], (ts(0), ts(0)), 0.10)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValidationError):
            make_windows([ts(5)], (ts(0), ts(10)), 1.5)


class TestSigma:
    def test_zero_at_window_right_edge(self):
        for profile in (UNIT, STANDARD, LOW_FP, LOW_FN):
            assert sigma(0.0, profile) == pytest.approx(0.0)

    def test_left_edge_value(self):
        assert sigma(-1.0, UNIT) == pytest.approx(0.9866142981514303)

    def test_fig_style_midwindow_value(self):
        assert sigma(-0.31, UNIT) == pytest.approx(0.65, abs=0.01)

    def test_saturation_past_three_window_lengths(self):
        assert sigma(3.1, UNIT) == -1.0
        assert sigma(100.0, STANDARD) == -(STANDARD.a_tp - STANDARD.a_fp)

    def test_strictly_decreasing_inside_operating_range(self):
        ys = [-3.0 + 0.25 * i for i in range(25)]
        vals = [sigma(y, STANDARD) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_scales_with_profile_weight(self):
        assert sigma(-1.0, STANDARD) == pytest.approx(1.11 * sigma(-1.0, UNIT))


class TestScoreRun:
    def test_all_missed_windows(self):
        windows = [AnomalyWindow(ts(10), ts(20)), AnomalyWindow(ts(50), ts(60))]
        output = [(t, 0.0) for t in timeline(100)]
        assert score_run(output, windows, 0.5, STANDARD) == pytest.approx(-2.0)

    def test_detection_at_left_edge(self):
        windows = [AnomalyWindow(ts(10), ts(20))]
        output = [(ts(10), 1.0)]
        assert score_run(output, windows, 0.5, UNIT) == pytest.approx(
            0.9866142981514303)

    def test_only_earliest_in_window_detection_counts(self):
        windows = [AnomalyWindow(ts(10), ts(20))]
        one = score_run([(ts(10), 1.0)], windows, 0.5, UNIT)
        many = score_run([(ts(10), 1.0), (ts(15), 1.0), (ts(20), 1.0)],
                         windows, 0.5, UNIT)
        assert many == pytest.approx(one)

    def test_fp_before_any_window_gets_full_penalty(self):
        windows = [AnomalyWindow(ts(50), ts(60))]
        got = score_run([(ts(5), 1.0)], windows, 0.5, STANDARD)
        assert got == pytest.approx(-(1.11) + STANDARD.a_fn)

    def test_fp_after_window_penalized_by_distance(self):
        windows = [AnomalyWindow(ts(10), ts(20))]
        near = score_run([(ts(21), 1.0)], windows, 0.5, UNIT)
        far = score_run([(ts(60), 1.0)], windows, 0.5, UNIT)
        # both totals include the missed-window penalty of -1
        assert far == pytest.approx(-2.0)  # saturated FP plus the miss
        assert far < near < -1.0

    def test_more_fps_never_score_better(self):
        windows = [AnomalyWindow(ts(10), ts(20))]
        base = [(ts(15), 1.0)]
        worse = base + [(ts(40), 1.0)]
        assert (score_run(worse, windows, 0.5, STANDARD)
                < score_run(base, windows, 0.5, STANDARD))

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            score_run([(ts(0), 0.5)], [], 1.1, STANDARD)


def brute_force_optimum(outputs, wbf, profile):
    """score_run at every candidate, highest first; the first maximum wins."""
    candidates = {0.0, 1.0}
    for output in outputs.values():
        candidates.update(s for _, s in output)
    best_thr, best_raw = None, None
    for cand in sorted(candidates, reverse=True):
        total = sum(score_run(outputs[n], wbf.get(n, []), cand, profile)
                    for n in outputs)
        if best_raw is None or total > best_raw:
            best_thr, best_raw = cand, total
    return best_thr, best_raw


def brute_force_oracle(times, wbf):
    """1.0 at the first record inside each window, by direct scans."""
    outputs = {}
    for name, stamps in times.items():
        hit = set()
        outputs[name] = []
        for t in stamps:
            inside = [i for i, w in enumerate(wbf.get(name, [])) if contains(w, t)]
            first = bool(inside) and inside[0] not in hit
            hit.update(inside)
            outputs[name].append((t, 1.0 if first else 0.0))
    return outputs


def random_corpus(rng):
    """A few files sharing timestamps: repeated timestamps, scores tied on a
    coarse grid, windows whose edges fall exactly on records, short windows
    with detections far past them, records before the first window, and
    files with no windows or no records at all."""
    outputs, wbf = {}, {}
    for i in range(rng.randint(1, 4)):
        times, t = [], ts(rng.randint(0, 3))
        for _ in range(rng.randint(0, 50)):
            times.append(t)
            t += timedelta(minutes=rng.choice((0, 1, 1, 2)))
        decimals = rng.choice((1, 2, 6))
        outputs[f"f{i}.csv"] = [(t, round(rng.random(), decimals)) for t in times]
        windows, k = [], rng.randint(1, 12)
        while rng.random() < 0.8 and k + 1 < len(times):
            end = min(k + rng.randint(1, 6), len(times) - 1)
            if times[end] > times[k]:
                windows.append(AnomalyWindow(times[k], times[end]))
            k = end + 1
            while k < len(times) and times[k] == times[end]:
                k += 1
            k += rng.randint(0, 20)
        wbf[f"f{i}.csv"] = windows
    return outputs, wbf


class TestOptimizeThreshold:
    def single_file(self, output, windows):
        return columns({"f.csv": output}), {"f.csv": windows}

    def test_silent_detector_misses_everything_at_threshold_one(self):
        windows = [AnomalyWindow(ts(10), ts(20)), AnomalyWindow(ts(50), ts(60))]
        outputs, wbf = self.single_file([(t, 0.0) for t in timeline(100)], windows)
        thr, raw = optimize_threshold(outputs, wbf, STANDARD)
        assert thr == 1.0 and raw == pytest.approx(-2.0)

    def test_oracle_like_detector(self):
        windows = [AnomalyWindow(ts(10), ts(20)), AnomalyWindow(ts(50), ts(60))]
        output = [(t, 1.0 if t in (ts(10), ts(50)) else 0.0)
                  for t in timeline(100)]
        outputs, wbf = self.single_file(output, windows)
        thr, raw = optimize_threshold(outputs, wbf, UNIT)
        assert 0.0 < thr <= 1.0
        assert raw == pytest.approx(2 * 0.9866142981514303)

    def test_tie_resolves_to_highest_threshold(self):
        windows = [AnomalyWindow(ts(0), ts(10))]
        outputs, wbf = self.single_file([(ts(5), 0.7)], windows)
        thr, _ = optimize_threshold(outputs, wbf, UNIT)
        assert thr == 0.7

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            optimize_threshold({}, {}, STANDARD)

    def test_matches_brute_force_reference(self):
        rng = random.Random(11)
        outputs, wbf = {}, {}
        for name in ("a.csv", "b.csv"):
            times = timeline(60)
            outputs[name] = [(t, round(rng.random(), 3)) for t in times]
            labels = sorted(rng.sample(range(5, 55), 2))
            wbf[name] = make_windows([ts(m) for m in labels],
                                     (times[0], times[-1]), 0.10)
        for profile in (STANDARD, LOW_FP, LOW_FN, UNIT):
            best_thr, best_raw = brute_force_optimum(outputs, wbf, profile)
            thr, raw = optimize_threshold(columns(outputs), wbf, profile)
            assert thr == pytest.approx(best_thr)
            assert raw == pytest.approx(best_raw, abs=1e-9)


class TestSweepMatchesBruteForce:
    PROFILES = (STANDARD, LOW_FP, LOW_FN, UNIT)

    def test_optimize_threshold(self):
        rng = random.Random(2015)
        for _ in range(60):
            outputs, wbf = random_corpus(rng)
            for profile in self.PROFILES:
                best_thr, best_raw = brute_force_optimum(outputs, wbf, profile)
                thr, raw = optimize_threshold(columns(outputs), wbf, profile)
                assert thr == best_thr
                assert raw == pytest.approx(best_raw, abs=1e-9)

    def test_oracle_outputs(self):
        rng = random.Random(7)
        for _ in range(60):
            outputs, wbf = random_corpus(rng)
            times = {n: [t for t, _ in o] for n, o in outputs.items()}
            assert (as_lists(oracle_outputs(stamps(times), wbf))
                    == as_lists(columns(brute_force_oracle(times, wbf))))

    def test_benchmark(self):
        rng = random.Random(1)
        checked = 0
        while checked < 30:
            outputs, wbf = random_corpus(rng)
            if not any(wbf.values()):
                continue  # no windows: the normalization bounds coincide
            times = {n: [t for t, _ in o] for n, o in outputs.items()}
            oracle = brute_force_oracle(times, wbf)
            null = {n: [(t, 0.5) for t in ts] for n, ts in times.items()}
            results = benchmark("x", columns(outputs), wbf, self.PROFILES)
            for r, profile in zip(results, self.PROFILES):
                thr, raw = brute_force_optimum(outputs, wbf, profile)
                _, null_raw = brute_force_optimum(null, wbf, profile)
                _, perfect_raw = brute_force_optimum(oracle, wbf, profile)
                assert r.optimized_threshold == thr
                assert r.raw_score == pytest.approx(raw, abs=1e-9)
                assert r.normalized_score == pytest.approx(
                    normalize(raw, null_raw, perfect_raw), abs=1e-9)
            checked += 1


class TestWindowsMustBeDisjoint:
    def corpus(self, windows):
        return columns({"f.csv": [(t, 0.5) for t in timeline(40)]}), {"f.csv": windows}

    @pytest.mark.parametrize("start", [15, 20])
    def test_overlapping_windows_rejected(self, start):
        windows = [AnomalyWindow(ts(start), ts(30)), AnomalyWindow(ts(10), ts(20))]
        outputs, wbf = self.corpus(windows)
        with pytest.raises(ValidationError, match="overlap"):
            optimize_threshold(outputs, wbf, STANDARD)
        with pytest.raises(ValidationError, match="overlap"):
            benchmark("x", outputs, wbf, [STANDARD])
        with pytest.raises(ValidationError, match="overlap"):
            oracle_outputs(stamps({"f.csv": timeline(40)}), wbf)

    def test_adjacent_windows_accepted(self):
        outputs, wbf = self.corpus([AnomalyWindow(ts(10), ts(20)),
                                    AnomalyWindow(ts(21), ts(30))])
        assert optimize_threshold(outputs, wbf, STANDARD)[0] == 1.0


class TestScoreGolden:
    # sha256 of this corpus's results.json and windows.json; scoring changes
    # must keep both byte-identical
    RESULTS_SHA256 = "c0eede13e2a69e2e16c1a2c95498cc9409d495b284f0e8b5d153b277c523ec4d"
    WINDOWS_SHA256 = "b2c0ab7c7c7551001f00a87bcacb6d5f56ef4095b4ee865515a90669abb1e429"

    def test_results_json_unchanged(self, tmp_path):
        corpus, scores, results = (tmp_path / d for d in ("corpus", "scores", "results"))
        assert main(["synth", "--mode", "generate", "--output", str(corpus),
                     "--files", "3", "--duration", "20", "--sample-rate", "50",
                     "--seed", "5"]) == 0
        assert main(["run", "--corpus", str(corpus), "--output", str(scores),
                     "--detector", "windowed_gaussian", "--seed", "1",
                     "--param", "window=200"]) == 0
        assert main(["score", "--scores", str(scores),
                     "--labels", str(corpus / "labels.json"),
                     "--output", str(results)]) == 0
        digest = hashlib.sha256((results / "results.json").read_bytes()).hexdigest()
        assert digest == self.RESULTS_SHA256
        digest = hashlib.sha256((results / "windows.json").read_bytes()).hexdigest()
        assert digest == self.WINDOWS_SHA256


class TestNormalize:
    def test_null_maps_to_zero(self):
        assert normalize(-5.0, -5.0, 10.0) == 0.0

    def test_perfect_maps_to_hundred(self):
        assert normalize(10.0, -5.0, 10.0) == 100.0

    def test_worse_than_null_clamps_to_zero(self):
        assert normalize(-50.0, -5.0, 10.0) == 0.0

    def test_midpoint(self):
        assert normalize(2.5, -5.0, 10.0) == pytest.approx(50.0)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValidationError):
            normalize(0.0, 5.0, 5.0)


class TestBenchmark:
    def make_corpus(self):
        times = {"a.csv": timeline(200), "b.csv": timeline(200)}
        wbf = {
            "a.csv": make_windows([ts(60), ts(140)], (ts(0), ts(199)), 0.10),
            "b.csv": make_windows([ts(100)], (ts(0), ts(199)), 0.10),
        }
        return stamps(times), wbf

    def test_oracle_normalizes_to_hundred(self):
        times, wbf = self.make_corpus()
        outputs = oracle_outputs(times, wbf)
        results = benchmark("oracle", outputs, wbf, [STANDARD, LOW_FP, LOW_FN])
        for r in results:
            assert r.normalized_score == pytest.approx(100.0, abs=1e-9)

    def test_null_normalizes_to_zero(self):
        times, wbf = self.make_corpus()
        results = benchmark("null", null_outputs(times), wbf, [STANDARD])
        assert results[0].normalized_score == pytest.approx(0.0, abs=1e-9)

    def test_result_rows_per_profile(self):
        times, wbf = self.make_corpus()
        results = benchmark("x", null_outputs(times), wbf,
                            [STANDARD, LOW_FP, LOW_FN])
        assert [r.profile for r in results] == ["standard", "low_fp", "low_fn"]
