"""Command-line harness: ``run``, ``score``, ``synth``, ``inspect``.

``run`` reads each series file into columns, steps a fresh detector
through them and writes a score file whose rows are the series rows as
read, each followed by ``,`` and its score; timestamps and values are not
formatted again. It holds one file in memory per process: each score file
is written as soon as it is scored.

``run``, ``score`` and ``synth --mode generate`` write their files into a
hidden ``.htmpm-run-*`` staging directory, inside the output directory
when that exists, else in its nearest existing ancestor, then make the
output directory and move the files in by renames: ``run``'s
``manifest.json`` last, so that it marks a complete run. A directory in
the place of any file is a data error, found before the first move. A
refused command removes the staging directory, so it leaves the output as
it was; a process killed mid-write can leave one behind.

Exit codes: 0 success, 1 validation error, 2 data error. A command line
the parser refuses, or one with no command, is a validation error with an
``error:`` line; only ``--help`` exits from the parser. So is a numeric
flag that is not a number, as the same value in a config file is:
``run``'s ``--seed``, ``--train-fraction`` and ``--subsample`` go into the
entry map that ``RunConfig.from_entries`` parses, and the parser converts
every other one. The default config path can be set through HTMPM_CONFIG.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timedelta
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import KNOWN_KEYS, RunConfig, load_config
from .detectors import DETECTOR_KINDS, _integer, _number, run_file
from .errors import DataError, HtmpmError, ValidationError
from .nab import PROFILES, benchmark, make_windows
from .psd_synth import (DegradationModel, SynthSpec, generate_degradation, psd_map,
                        sample_count)
from .series import (Columns, _micros, read_columns, read_json, read_labels,
                     read_scores, read_series, write_labels, write_scores,
                     write_series, write_windows)

def _config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps({
        "detector": cfg.detector.kind,
        "parameters": dict(sorted(cfg.detector.parameters.items())),
        "seed": cfg.seed,
        "train_fraction": cfg.train_fraction,
        "subsample": cfg.subsample,
    }, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _run_one(args):
    """Score one series file into the staging directory; only the file's
    name, record count and scoring time go back to the caller. An error the
    detector raises is raised again as the same type, naming the file."""
    cfg, path, staging = args
    records = read_series(path)
    if cfg.subsample > 1:
        records = records[::cfg.subsample]
    started = time.perf_counter()
    try:
        scores = run_file(cfg.detector, records, cfg.train_fraction)
    except HtmpmError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    elapsed = time.perf_counter() - started
    write_scores(staging / path.name, records, scores)
    return path.name, len(records), elapsed


@contextmanager
def _writing(path):
    """An OS error while writing ``path`` raised again as a data error
    naming it."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from None


def _publish(output_dir: Path, write) -> Path:
    """Land a command's files in ``output_dir`` through a staging directory
    on its file system, as the module docstring describes: ``write(staging)``
    writes them there and returns their names in the order they move in."""
    parent = next(p for p in (output_dir, *output_dir.parents) if p.exists())
    with _writing(output_dir):
        staging = Path(tempfile.mkdtemp(prefix=".htmpm-run-", dir=parent))
        try:
            names = write(staging)
            for name in names:
                if (output_dir / name).is_dir():
                    raise DataError(f"{output_dir / name}: cannot write: "
                                    "a directory is in the way")
            output_dir.mkdir(parents=True, exist_ok=True)
            for name in names:
                os.replace(staging / name, output_dir / name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return output_dir


def cmd_run(cfg: RunConfig, workers: int = 1) -> Path:
    """Score every series of the corpus into ``cfg.output_dir``, staged as
    the module docstring describes."""
    if workers < 1:
        raise ValidationError(f"--workers must be at least 1, got {workers}")
    if cfg.output_dir.resolve() == cfg.corpus_dir.resolve():
        raise ValidationError(f"output directory {cfg.output_dir} is the corpus directory, "
                              "whose series files the score files would replace")
    files = sorted(cfg.corpus_dir.glob("*.csv"))
    if not files:
        raise DataError(f"no .csv series in {cfg.corpus_dir}")

    def write(staging):
        jobs = [(cfg, path, staging) for path in files]
        if workers > 1:
            # spawned, not forked: numpy's BLAS threads make this process
            # multi-threaded, and Python 3.12+ deprecates fork() there
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
                try:
                    outcomes = list(pool.map(_run_one, jobs))
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
        else:
            outcomes = [_run_one(job) for job in jobs]
        manifest = {
            "config_hash": _config_hash(cfg),
            "seed": cfg.seed,
            "detector": cfg.detector.kind,
            "package_version": __version__,
            "train_fraction": cfg.train_fraction,
            "files": {
                name: {
                    "records": records,
                    "runtime_seconds": round(elapsed, 6),
                    "records_per_second": round(records / elapsed, 1) if elapsed else None,
                } for name, records, elapsed in outcomes
            },
        }
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        # the manifest moves in last, so that it marks a complete run
        return [name for name, _, _ in outcomes] + ["manifest.json"]
    return _publish(cfg.output_dir, write)


def cmd_score(scores_dir, labels_path, profiles, output_dir,
              window_budget: float = 0.10, detector_name: str = "detector"):
    scores_dir, output_dir = Path(scores_dir), Path(output_dir)
    if not profiles:
        raise ValidationError("no scoring profiles selected")
    unknown = [p for p in profiles if p not in PROFILES]
    if unknown:
        raise ValidationError(f"unknown profile(s) {unknown}; choose from {sorted(PROFILES)}")
    repeated = sorted({p for p in profiles if profiles.count(p) > 1})
    if repeated:
        raise ValidationError(f"profile(s) {repeated} given more than once")
    labels = read_labels(labels_path)

    score_files = sorted(p for p in scores_dir.glob("*.csv"))
    if not score_files:
        raise DataError(f"no .csv score files in {scores_dir}")
    outputs, windows_by_file = {}, {}
    names = {p.name for p in score_files}
    missing = sorted(set(labels) - names)
    if missing:
        raise DataError(f"labeled series without score files: {missing}")
    for path in score_files:
        columns = read_scores(path)
        outputs[path.name] = (columns.times, columns.scores)
        try:
            windows_by_file[path.name] = make_windows(
                labels.get(path.name, []), columns.span(), window_budget)
        except DataError as exc:
            raise DataError(f"{labels_path}: labels of {path.name!r}: {exc}") from None
    if not any(windows_by_file.values()):  # the null detector would score as the oracle
        raise DataError(f"no scored file has an anomaly window in {labels_path}")

    results = benchmark(
        detector_name, outputs, windows_by_file,
        [PROFILES[p] for p in profiles],
    )

    def write(staging):
        write_windows(staging / "windows.json", windows_by_file)
        (staging / "results.json").write_text(
            json.dumps([asdict(r) for r in results], indent=2) + "\n")
        return ["windows.json", "results.json"]
    _publish(output_dir, write)

    header = f"{'Detector':<20} {'Profile':<10} {'Raw':>12} {'Normalized':>12} {'Threshold':>10}"
    print(header)
    print("-" * len(header))
    for r in results:
        print(f"{r.detector:<20} {r.profile:<10} {r.raw_score:>12.4f} "
              f"{r.normalized_score:>12.2f} {r.optimized_threshold:>10.4f}")
    return results


def _sample_times(start: datetime, n: int, rate: float) -> np.ndarray:
    """int64 microseconds since 1970-01-01 of ``n`` samples at ``rate`` Hz
    from ``start``: exactly ``start + timedelta(seconds=j / rate)``, which
    adds the whole seconds and rounds the fraction to the nearest
    microsecond, ties to even."""
    frac, whole = np.modf(np.arange(n) / rate)
    offsets = whole.astype(np.int64) * 1_000_000 + np.rint(frac * 1e6).astype(np.int64)
    return _micros([start]) + offsets


def cmd_synth_generate(output_dir, n_files, duration, sample_rate, seed,
                       start_time=None):
    """Seeded degradation corpus: one CSV per file plus a labels JSON."""
    if n_files < 1:
        raise ValidationError(f"--files must be at least 1, got {n_files}")
    if seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {seed}")
    sample_count(duration, sample_rate)  # refused before anything is staged
    start_time = start_time or datetime(2021, 1, 1)
    # fault frequencies with integer sample periods, so the healthy and
    # faulty regimes are exactly periodic and online detectors can settle
    fault_choices = (sample_rate / 10.0, sample_rate / 8.0, sample_rate / 5.0)

    def write(staging):
        labels_doc = {}
        rng = np.random.default_rng(seed)
        for i in range(n_files):
            file_seed = seed + i
            fault_freq = float(fault_choices[int(rng.integers(len(fault_choices)))])
            base_amp = float(rng.uniform(1.0, 1.5))
            # fault onset plus two stepped escalations in the scored stretch
            breakpoints = tuple(
                (float(frac) * duration, base_amp * factor)
                for frac, factor in zip(
                    sorted(rng.uniform(0.25, 0.95, size=3)), (1.0, 2.0, 3.5)
                )
            )
            model = DegradationModel(
                baseline_sigma=0.02,
                fault_freqs=(fault_freq,),
                growth=breakpoints,
            )
            values, label_times = generate_degradation(
                model, duration, sample_rate, seed=file_seed
            )
            name = f"degradation_{i:02d}.csv"
            times = _sample_times(start_time, len(values), sample_rate)
            write_series(staging / name, Columns(times, values))
            labels_doc[name] = [
                start_time + timedelta(seconds=t) for t in label_times
            ]
        write_labels(staging / "labels.json", labels_doc)
        # the labels move in after the series they label
        return [*labels_doc, "labels.json"]
    return _publish(Path(output_dir), write)


def cmd_synth_map(bearing_path, target_path, output_path, spec: SynthSpec):
    bearing = read_columns(bearing_path).values
    target = read_columns(target_path)
    mapped = psd_map(bearing, target.values, spec)
    with _writing(output_path):
        write_series(output_path, Columns(target.times, mapped))
    return output_path


def cmd_inspect(path):
    path = Path(path)
    if path.suffix == ".json":
        doc = read_json(path)
        if not isinstance(doc, (dict, list)):
            raise DataError(f"{path}: expected a JSON object or array")
        print(f"{path}: JSON document with {len(doc)} top-level entries")
        return
    if path.suffix != ".csv":
        raise DataError(f"{path}: can inspect .json and .csv files only")
    columns = read_columns(path)
    first, last = columns.span()
    values = columns.values.tolist()
    print(f"{path}: {len(columns)} rows, span {first} .. {last}, "
          f"value range [{min(values)}, {max(values)}]")


class _Parser(argparse.ArgumentParser):
    """Raises ValidationError where argparse would exit, as its converters do."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="htmpm")
    # optional, so that argparse names an unknown flag; main refuses no command
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a detector over a corpus")
    p_run.add_argument("--config", default=os.environ.get("HTMPM_CONFIG"))
    # each flag's dest is the config key it sets
    p_run.add_argument("--corpus", dest="corpus_dir")
    p_run.add_argument("--output", dest="output_dir")
    p_run.add_argument("--detector", dest="detector.kind", choices=DETECTOR_KINDS)
    p_run.add_argument("--seed")
    p_run.add_argument("--train-fraction")
    p_run.add_argument("--subsample")
    p_run.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE", help="detector parameter override")
    p_run.add_argument("--workers", type=partial(_integer, "--workers"), default=1)

    p_score = sub.add_parser("score", help="score a run against labels")
    p_score.add_argument("--scores", required=True)
    p_score.add_argument("--labels", required=True)
    p_score.add_argument("--output", required=True)
    p_score.add_argument("--profiles", default="standard,low_fp,low_fn")
    p_score.add_argument("--budget", type=partial(_number, "--budget"), default=0.10)
    p_score.add_argument("--name", default="detector")

    p_synth = sub.add_parser("synth", help="generate or map synthetic data")
    p_synth.add_argument("--mode", choices=("generate", "map"), required=True)
    p_synth.add_argument("--output", required=True)
    p_synth.add_argument("--files", type=partial(_integer, "--files"), default=10)
    p_synth.add_argument("--duration", type=partial(_number, "--duration"), default=60.0)
    p_synth.add_argument("--sample-rate", type=partial(_number, "--sample-rate"), default=50.0)
    p_synth.add_argument("--seed", type=partial(_integer, "--seed"), default=0)
    p_synth.add_argument("--bearing")
    p_synth.add_argument("--target")
    p_synth.add_argument("--window-len", type=partial(_integer, "--window-len"), default=256)
    p_synth.add_argument("--hop", type=partial(_integer, "--hop"))
    p_synth.add_argument("--bin-size", type=partial(_number, "--bin-size"))
    p_synth.add_argument("--taper", default="hann")

    p_inspect = sub.add_parser("inspect", help="summarize a .json or .csv file")
    p_inspect.add_argument("path")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            entries = load_config(args.config) if args.config else {}
            # a flag not given, or an empty path, leaves the file's entry
            entries.update((k, v) for k, v in vars(args).items()
                           if k in KNOWN_KEYS and v not in (None, ""))
            for pair in args.param:
                key, eq, value = pair.partition("=")
                if not eq:
                    raise ValidationError(f"--param expects KEY=VALUE, got {pair!r}")
                entries[f"detector.param.{key.strip()}"] = value.strip()
            cmd_run(RunConfig.from_entries(entries), workers=args.workers)
        elif args.command == "score":
            profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
            cmd_score(args.scores, args.labels, profiles, args.output,
                      window_budget=args.budget, detector_name=args.name)
        elif args.command == "synth":
            if args.mode == "generate":
                cmd_synth_generate(args.output, args.files, args.duration,
                                   args.sample_rate, args.seed)
            else:
                if not args.bearing or not args.target:
                    raise ValidationError("synth --mode map needs --bearing and --target")
                # the default bin is the FFT resolution, derived only from a
                # valid window: SynthSpec rejects a bad window before the bin
                resolution = args.sample_rate / args.window_len if args.window_len > 0 else None
                spec = SynthSpec(
                    window_len=args.window_len,
                    hop=args.window_len // 2 if args.hop is None else args.hop,
                    bin_size=resolution if args.bin_size is None else args.bin_size,
                    sample_rate=args.sample_rate,
                    taper=args.taper,
                )
                cmd_synth_map(args.bearing, args.target, args.output, spec)
        elif args.command == "inspect":
            cmd_inspect(args.path)
        else:
            raise ValidationError("no command given: choose run, score, synth or inspect")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HtmpmError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
