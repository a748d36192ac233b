"""The benchmark's workloads: how each builds its corpus from a seed, and
which detector it runs.

htmpm only ever sees the generated files. Sizes are fixed per workload
(``scale`` shrinks them for the smoke test only), because the cost of a
record on noisy input grows with the stream's length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

# htmpm functions are called through their modules, so that the tracer's
# wrappers see the calls
from htmpm import cli, psd_synth, series

SAMPLE_RATE = 50.0
T0 = datetime(2021, 1, 1)
# the criterion-7 cycle: -0.5 and 0.0 each follow two different contexts
STAIRCASE = (-1.0, -0.5, 0.0, 0.5, 1.0, 0.5, 0.0, -0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    detector: str
    build: Callable[[Path, int, float], None]
    params: dict = field(default_factory=dict)


def _onsets(rng, duration: float) -> list[float]:
    """Three fault steps near 40, 60 and 80% of the stream, each moved by
    up to 5% of it: seeds change the timing, not the amount of work."""
    fractions = np.array([0.4, 0.6, 0.8]) + rng.uniform(-0.05, 0.05, size=3)
    return [float(f) * duration for f in fractions]


def _write(corpus: Path, streams: dict) -> None:
    """streams: file name -> (values, label times in seconds)."""
    corpus.mkdir(parents=True, exist_ok=True)
    for name, (values, _) in streams.items():
        series.write_series(corpus / name, [
            (T0 + timedelta(seconds=i / SAMPLE_RATE), float(v)) for i, v in enumerate(values)
        ])
    series.write_labels(corpus / "labels.json", {
        name: [T0 + timedelta(seconds=t) for t in label_times]
        for name, (_, label_times) in streams.items()
    })


def _degradation(corpus: Path, seed: int, scale: float) -> None:
    """Four bearing files, each quiet (sensor noise only) until one fault
    onset near its middle, the first stage of a ``synth generate`` file.
    The fault frequency and amplitude are pinned to the middle of that
    generator's choices, because the frequency alone changes the cost of a
    record by half. One onset per file, because in 30-second files a
    second step falls inside the likelihood's 1000-record history and is
    missed or caught by chance, which moves the NAB score with the seed."""
    n = int(1500 * scale)
    duration = n / SAMPLE_RATE
    rng = np.random.default_rng(seed)
    streams = {}
    for i in range(4):
        onset = float(rng.uniform(0.4, 0.6)) * duration
        model = psd_synth.DegradationModel(
            baseline_sigma=0.02, fault_freqs=(SAMPLE_RATE / 8,), growth=((onset, 1.25),))
        streams[f"degradation_{i:02d}.csv"] = psd_synth.generate_degradation(
            model, duration, SAMPLE_RATE, seed=seed * 100 + i)
    _write(corpus, streams)


def _nab_corpus(corpus: Path, seed: int, scale: float) -> None:
    # 25 files x 4000 records: 100k records and 75 labels, enough files
    # that the seed's random choices average out
    cli.cmd_synth_generate(corpus, n_files=25, duration=80.0 * scale,
                           sample_rate=SAMPLE_RATE, seed=seed)


def _staircase(corpus: Path, seed: int, scale: float) -> None:
    """The staircase cycle plus a fault of the same 8-record period that
    steps up in amplitude at three labeled instants. Each step turns the
    cycle into a new periodic shape, so the state stays bounded and the
    labels mark contextual anomalies."""
    n = int(6000 * scale)
    duration = n / SAMPLE_RATE
    model = psd_synth.DegradationModel(
        baseline_sigma=0.0,
        fault_freqs=(SAMPLE_RATE / len(STAIRCASE),),
        growth=tuple(zip(_onsets(np.random.default_rng(seed), duration), (0.25, 0.5, 0.75))),
    )
    # noise-free, so the generator's seed only sets the fault's phase; it is
    # fixed because the phase changes how much the TM has to relearn
    fault, label_times = psd_synth.generate_degradation(model, duration, SAMPLE_RATE, seed=0)
    _write(corpus, {"staircase.csv": (
        [STAIRCASE[i % len(STAIRCASE)] + f for i, f in enumerate(fault)], label_times)})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="htm_degradation",
        detector="htm_hd",
        build=_degradation,
        # the fault (amplitude 1.25) fits; the sensor noise (sigma 0.02)
        # moves the encoding by about two of its 380 buckets
        params={"value_min": -2.0, "value_max": 2.0},
    ),
    Workload(
        name="htm_staircase",
        detector="htm_hd",
        build=_staircase,
        params={"value_min": -2.0, "value_max": 2.0},
    ),
    Workload(
        name="nab_corpus",
        detector="windowed_gaussian",
        build=_nab_corpus,
    ),
)}
