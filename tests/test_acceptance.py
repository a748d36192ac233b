"""Acceptance suite: one test per published criterion.

Each test prints a single PASS line when its assertions hold; with
``pytest -v`` the test id itself doubles as the pass/fail line.
"""

import itertools
import json
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from htmpm.cli import cmd_synth_generate, main
from htmpm.detectors import DetectorConfig, build_detector, run_file
from htmpm.nab import (PROFILES, STANDARD, ScoringProfile, benchmark,
                       make_windows, null_outputs, optimize_threshold,
                       oracle_outputs, sigma)
from htmpm.psd_synth import SynthSpec, psd_map
from htmpm.sdr import capacity, false_match_probability
from htmpm.series import read_labels, read_series
from records import as_columns

T0 = datetime(2021, 1, 1)


def test_criterion_1_sdr_math_oracle():
    started = time.perf_counter()

    # exact small case against brute-force enumeration
    x = frozenset((0, 1))
    hits = sum(1 for cand in itertools.combinations(range(6), 2)
               if x & set(cand))
    assert false_match_probability(6, 2, 1) == hits / 15 == 0.6

    # capacity order of magnitude
    assert len(str(capacity(2048, 20))) - 1 == 47

    # Monte Carlo validation of the analytic false-match probability:
    # fixed 20-bit vector vs 10^6 random 20-bit vectors at theta=10
    n, w, theta, trials = 1024, 20, 10, 1_000_000
    analytic = false_match_probability(n, w, theta)
    rng = np.random.default_rng(2024)
    fixed = np.zeros(n, dtype=bool)
    fixed[rng.choice(n, size=w, replace=False)] = True
    matched = 0
    chunk = 20_000
    for _ in range(trials // chunk):
        keys = rng.random((chunk, n), dtype=np.float32)
        top = np.argpartition(keys, w, axis=1)[:, :w]
        overlaps = fixed[top].sum(axis=1)
        matched += int(np.count_nonzero(overlaps >= theta))
    empirical = matched / trials
    stderr = np.sqrt(analytic * (1 - analytic) / trials)
    assert abs(empirical - analytic) <= 3 * stderr

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS criterion 1: SDR math oracle (analytic={analytic:.3e}, "
          f"empirical={empirical:.3e}, {elapsed:.1f}s)")


def test_criterion_2_single_pass_sequence_learning():
    started = time.perf_counter()
    symbols = [10.0, 25.0, 40.0, 55.0, 70.0, 85.0, 60.0, 30.0]
    stream = symbols * 200
    detector = build_detector(DetectorConfig("htm_raw", {}, seed=3))
    detector.calibrate([0.0, 100.0])
    raw = [detector.step(T0 + timedelta(seconds=i), v)
           for i, v in enumerate(stream)]

    tail = raw[-len(stream) // 10:]
    mean_tail = sum(tail) / len(tail)
    assert mean_tail < 0.1

    novel = detector.step(T0 + timedelta(seconds=len(stream)), 98.0)
    assert novel >= 0.9

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS criterion 2: single-pass learning (tail raw={mean_tail:.4f}, "
          f"novel raw={novel:.2f}, {elapsed:.1f}s)")


def test_criterion_3_continuous_adaptation_after_shift():
    # repeating 8-step cycle whose amplitude permanently triples
    cycle = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 0.5, 0.0, -0.5])
    n_pre, n_post = 2400, 600
    base = np.tile(cycle, (n_pre + n_post) // len(cycle))
    amp = np.where(np.arange(n_pre + n_post) < n_pre, 1.0, 3.0)
    values = base * amp

    detector = build_detector(DetectorConfig(
        "htm_hd",
        {"value_min": -4.0, "value_max": 4.0, "encoder_bits": 800},
        seed=11,
    ))
    likelihood = np.array([
        detector.step(T0 + timedelta(seconds=i), float(v))
        for i, v in enumerate(values)
    ])
    threshold = 0.9
    post = likelihood[n_pre:]

    flags = np.nonzero(post[:10] >= threshold)[0]
    assert flags.size > 0, "no flag within 10 records of the shift"
    first_flag = int(flags[0])

    after = post[first_flag + 1:first_flag + 1 + 500]
    recovered = np.nonzero(after < threshold)[0]
    assert recovered.size > 0, "did not return below threshold within 500"
    assert post[-100:].max() < threshold, "did not stay adapted"

    print(f"PASS criterion 3: adaptation (flag at +{first_flag}, "
          f"recovered at +{first_flag + 1 + int(recovered[0])})")


def test_criterion_4_scorer_oracle_micro_corpus():
    def ts(minutes):
        return T0 + timedelta(minutes=minutes)

    timestamps = {name: [ts(i) for i in range(500)]
                  for name in ("a.csv", "b.csv", "c.csv")}
    spans = {name: (t[0], t[-1]) for name, t in timestamps.items()}
    windows = {
        "a.csv": make_windows([ts(100), ts(350)], spans["a.csv"], 0.10),
        "b.csv": make_windows([ts(120), ts(400)], spans["b.csv"], 0.10),
        "c.csv": make_windows([ts(250)], spans["c.csv"], 0.10),
    }
    n_windows = sum(len(w) for w in windows.values())
    assert n_windows == 5
    times = {name: as_columns([(t, 0.0) for t in stamps]).times
             for name, stamps in timestamps.items()}

    # perfect oracle normalizes to 100 +/- 0.01, null to 0
    oracle = oracle_outputs(times, windows)
    null = null_outputs(times)
    for result in benchmark("oracle", oracle, windows, PROFILES.values()):
        assert result.normalized_score == pytest.approx(100.0, abs=0.01)
    for result in benchmark("null", null, windows, PROFILES.values()):
        assert result.normalized_score == pytest.approx(0.0, abs=0.01)

    # positional scoring: a detection at relative position y = -0.31
    # earns ~0.65 of the unit true-positive credit
    unit = ScoringProfile("unit", a_tp=1.0, a_fp=0.0, a_fn=-1.0)
    assert sigma(-0.31, unit) == pytest.approx(0.65, abs=0.01)

    # the all-miss detector's raw score is exactly -(windows) * |a_fn|
    silent = {name: (t, np.zeros(len(t))) for name, t in times.items()}
    for profile in PROFILES.values():
        threshold, raw = optimize_threshold(silent, windows, profile)
        assert threshold == 1.0
        assert raw == n_windows * profile.a_fn

    print("PASS criterion 4: scorer oracle (perfect=100, null=0, "
          f"sigma(-0.31)={sigma(-0.31, unit):.4f}, all-miss raw exact)")


def test_criterion_5_psd_mapping_fidelity():
    fs, L = 256.0, 256
    spec = SynthSpec(window_len=L, hop=L, bin_size=8.0, sample_rate=fs,
                     taper="rect")
    n = 4 * L
    t = np.arange(n) / fs
    target = np.sin(2 * np.pi * 32 * t) + 0.5 * np.sin(2 * np.pi * 96 * t)

    def band_power(sig, lo, hi):
        spectrum = np.fft.rfft(sig)
        freqs = np.fft.rfftfreq(len(sig), d=1.0 / fs)
        mask = (freqs >= lo) & (freqs < hi)
        return float(np.sum(np.abs(spectrum[mask]) ** 2))

    # identity: stationary bearing power leaves the target untouched
    identity = psd_map(np.ones(n), target, spec)
    rel_rms = np.sqrt(np.mean((identity - target) ** 2)
                      / np.mean(target ** 2))
    assert rel_rms < 1e-6

    # amplitude doubling in the 32 Hz band quadruples that band's power
    amp = np.where(np.arange(n) < L, 1.0, 2.0)
    bearing = amp * np.sin(2 * np.pi * 32 * t)
    mapped = psd_map(bearing, target, spec)
    w_out, w_tgt = mapped[L:2 * L], target[L:2 * L]
    scaled = band_power(w_out, 28, 36) / band_power(w_tgt, 28, 36)
    assert scaled == pytest.approx(4.0, rel=0.05)

    untouched = band_power(w_out, 92, 100) / band_power(w_tgt, 92, 100)
    assert abs(untouched - 1.0) < 0.01

    print(f"PASS criterion 5: PSD mapping (identity rms={rel_rms:.2e}, "
          f"doubled band x{scaled:.3f}, untouched x{untouched:.4f})")


def test_criterion_6_benchmark_ordering(tmp_path):
    corpus = tmp_path / "corpus"
    cmd_synth_generate(corpus, n_files=10, duration=40.0, sample_rate=50.0,
                       seed=7)
    labels = read_labels(corpus / "labels.json")
    assert sum(len(v) for v in labels.values()) >= 30

    records = {p.name: read_series(p) for p in sorted(corpus.glob("*.csv"))}
    windows = {}
    for name, recs in records.items():
        windows[name] = make_windows(labels[name], recs.span(), 0.10)

    htm_params = {"value_min": -8.0, "value_max": 8.0, "encoder_bits": 800}
    normalized = {}
    # the range-free htm_hd is the default path: no value_min/value_max
    for label, kind, params in (("htm_hd", "htm_hd", htm_params),
                                ("htm_hd_range_free", "htm_hd", {}),
                                ("windowed_gaussian", "windowed_gaussian", {}),
                                ("threshold", "threshold", {}),
                                ("random", "random", {})):
        outputs = {}
        for name, recs in records.items():
            scores = run_file(DetectorConfig(kind, params, seed=5), recs, 0.15)
            outputs[name] = (recs.times, scores)
        result = benchmark(label, outputs, windows, [STANDARD])[0]
        normalized[label] = result.normalized_score

    assert normalized["htm_hd"] > normalized["threshold"]
    assert normalized["htm_hd"] > normalized["random"]
    # the paper's headline ordering: HTM above the statistical baseline
    assert normalized["htm_hd_range_free"] > normalized["windowed_gaussian"]
    print("PASS criterion 6: benchmark ordering ("
          + ", ".join(f"{label}={score:.1f}" for label, score in normalized.items()) + ")")


def test_criterion_7_throughput():
    # learnable repeating staircase, full-size network
    cycle = [-1.0, -0.5, 0.0, 0.5, 1.0, 0.5, 0.0, -0.5]
    n = 100_000
    values = [cycle[i % 8] for i in range(n)]
    detector = build_detector(DetectorConfig(
        "htm_hd",
        {"n_columns": 2048, "m_cells": 32, "value_min": -2.0,
         "value_max": 2.0},
        seed=1,
    ))
    timestamps = [T0 + timedelta(seconds=i) for i in range(n)]
    started = time.perf_counter()
    for t, v in zip(timestamps, values):
        detector.step(t, v)
    elapsed = time.perf_counter() - started
    rate = n / elapsed
    assert rate >= 500.0
    print(f"PASS criterion 7: throughput ({rate:.0f} records/s "
          f"over {n} records)")


def test_criterion_8_byte_identical_reruns(tmp_path):
    corpus = tmp_path / "corpus"
    cmd_synth_generate(corpus, n_files=2, duration=8.0, sample_rate=50.0,
                       seed=21)
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "htm_hd", "--seed", "17",
                   "--param", "value_min=-8", "--param", "value_max=8"])
        assert rc == 0
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].glob("*.csv"))
    assert names
    for name in names:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b
    manifest = json.loads((outputs[0] / "manifest.json").read_text())
    assert manifest["seed"] == 17
    print(f"PASS criterion 8: determinism ({len(names)} score files "
          "byte-identical across reruns)")
