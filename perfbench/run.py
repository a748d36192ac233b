"""Benchmark of the htmpm pipeline: corpus set-up, ``cmd_run``, ``cmd_score``.

Run from the repository root:

    python3 perfbench/run.py --workload htm_degradation --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One workload runs in one process, as a closed loop: each record is stepped
only after the previous one returns, with one worker. The process builds
its corpus from ``--seed``, then repeats while the next repeat still fits
in ``--seconds``: one repeat builds the corpus again into a scratch
directory until SETUP_MIN_S of building was timed, calls ``cmd_run`` until
RUN_MIN_S of it was timed, then ``cmd_score`` until SCORE_MIN_S of it was
timed. Each timing metric is the trimmed mean (TRIM) over every call of
the run. Every output is checked; a raised ``HtmpmError`` or a failed
check counts as a failed operation.

With ``--trace 0`` the only timers are around ``cmd_run``, ``cmd_score``
and each detector ``step``, and the end-to-end metrics are printed. With
``--trace 1`` untraced and traced repeats alternate; the traced ones wrap
every public htmpm function (see spans.py), the per-layer metrics and the
tracing overhead are printed, and the spans are written to
``.perfbench_out/spans-<workload>-seed<seed>.csv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's settings, machine, repeat spread and output digests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROFILES = ("standard", "low_fp", "low_fn")
TRAIN_FRACTION = 0.15
# The detector's seed (criterion 7's) is fixed: the benchmark seed changes
# the corpus, while a new SP initialization per seed would move the mean
# raw score between 0.03 and 0.37 and the cost of a record with it.
DETECTOR_SEED = 1
# In every repeat each operation is called until this much of it was timed,
# so that the calls spread over the whole run: on a shared 2-core VM the
# speed swings by up to 2x for seconds at a time, and calls made in one
# burst, such as every set-up build before the first run, can all land on
# one side of a swing.
SETUP_MIN_S = 0.25
RUN_MIN_S = 2.0
SCORE_MIN_S = 1.0
MAX_REPEATS = 50
# The calls' times therefore have two modes. Their median jumps from one
# mode to the other as the mix passes one half, while a mean moves in
# proportion to the mix; trimming this share off each end keeps a stalled
# call from moving the mean.
TRIM = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every corpus by this factor (smoke tests only)")
    return parser.parse_args(argv)


def _trimmed_mean(values) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut]) if values else 0.0


def _spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _repeat(min_seconds, once):
    """Call ``once()`` until the times it returns add up to ``min_seconds``
    (at most MAX_REPEATS calls); the times, or None once it returns None."""
    times = []
    while not times or (sum(times) < min_seconds and len(times) < MAX_REPEATS):
        elapsed = once()
        if elapsed is None:
            return None
        times.append(elapsed)
    return times


class Ledger:
    """Operations attempted and failed; a failed one yields no timing."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label, fn, check):
        self.attempted += 1
        started = time.perf_counter()
        try:
            fn()
        except self.error_type as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - started
        problems = check()
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems[:3])}")
            return None
        return elapsed


def check_scores(corpus: Path, scores: Path) -> list[str]:
    """One score per record, echoing the record, in [0, 1]; the training
    prefix scored exactly 0."""
    inputs = sorted(corpus.glob("*.csv"))
    produced = sorted(p.name for p in scores.glob("*.csv"))
    if produced != [p.name for p in inputs]:
        return [f"score files {produced} do not match the corpus"]
    problems = []
    for src in inputs:
        rows = src.read_text().splitlines()[1:]
        lines = (scores / src.name).read_text().splitlines()
        if not lines or lines[0] != "timestamp,value,anomaly_score":
            problems.append(f"{src.name}: bad header")
            continue
        lines = lines[1:]
        if len(lines) != len(rows):
            problems.append(f"{src.name}: {len(lines)} scores for {len(rows)} records")
            continue
        n_train = int(len(rows) * TRAIN_FRACTION)
        for i, (row, line) in enumerate(zip(rows, lines)):
            echoed, _, text = line.rpartition(",")
            try:
                score = float(text)
            except ValueError:
                score = math.nan
            if echoed != row:
                problems.append(f"{src.name}: record {i} not echoed")
            elif not 0.0 <= score <= 1.0:
                problems.append(f"{src.name}: score {text!r} at record {i} outside [0, 1]")
            elif i < n_train and score != 0.0:
                problems.append(f"{src.name}: training record {i} scored {text}")
            else:
                continue
            break
    return problems


def check_results(path: Path) -> list[str]:
    """Three profiles, each with a normalized score in [0, 100]."""
    try:
        doc = json.loads(path.read_text())
        profiles = sorted(r["profile"] for r in doc)
        normalized = [r["normalized_score"] for r in doc]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable results.json: {exc}"]
    problems = []
    if profiles != sorted(PROFILES):
        problems.append(f"profiles {profiles}")
    problems += [f"normalized score {v} outside [0, 100]"
                 for v in normalized if not 0.0 <= v <= 100.0]
    return problems


class Bench:
    """One workload in this process: its corpus, outputs and timings."""

    def __init__(self, workload, seed, scale, work: Path):
        from htmpm import cli, detectors
        from htmpm.config import RunConfig
        from htmpm.detectors import DetectorConfig
        from htmpm.errors import HtmpmError

        self.cli = cli
        self.wl = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.ledger = Ledger(HtmpmError)
        self.corpus = work / "corpus"
        self.out = work / "out"
        self.cfg = RunConfig(
            corpus_dir=self.corpus, output_dir=self.out / "scores",
            detector=DetectorConfig(workload.detector, dict(workload.params), DETECTOR_SEED),
            train_fraction=TRAIN_FRACTION, seed=DETECTOR_SEED,
        )
        self.digests: dict[str, str] = {}  # sha256 of the first checked outputs
        self.corpus_digest = ""
        # the detector class the configured kind builds, whose step is timed
        self.detector_class = type(detectors.build_detector(self.cfg.detector))
        # step latencies of the current cmd_run call only, so that the
        # harness holds the same memory however many calls a run makes
        self.step_ns: list[int] = []
        self.step_samples = 0

    def build(self, target: Path):
        """Build the corpus into ``target``; it must equal the first build.
        The build time, or None after a failure."""
        shutil.rmtree(target, ignore_errors=True)
        gc.collect()

        def same_as_first():
            digest = _digest(target.iterdir())
            self.corpus_digest = self.corpus_digest or digest
            return [] if digest == self.corpus_digest else ["corpus differs from the first build"]

        return self.ledger.op(
            "setup", lambda: self.wl.build(target, self.seed, self.scale), same_as_first)

    def rebuild(self):
        """Build the corpus into a scratch directory until SETUP_MIN_S of
        building was timed; the times, or None after a failure."""
        scratch = self.work / "rebuilt-corpus"
        times = _repeat(SETUP_MIN_S, lambda: self.build(scratch))
        shutil.rmtree(scratch, ignore_errors=True)
        return times

    @contextlib.contextmanager
    def timed_steps(self):
        """Time every call of the workload detector's ``step``."""
        cls = self.detector_class
        original = cls.__dict__["step"]
        clock, samples = time.perf_counter_ns, self.step_ns

        def step(detector, timestamp, value):
            started = clock()
            score = original(detector, timestamp, value)
            samples.append(clock() - started)
            return score

        cls.step = step
        try:
            yield
        finally:
            cls.step = original

    def pipeline(self, records: int, timed_steps: bool):
        """``cmd_run`` for RUN_MIN_S, then ``cmd_score`` for SCORE_MIN_S; a
        dict of per-call values (run_s, step_p50_us, step_p99_us, score_s),
        or None after a failure. With ``timed_steps`` every record must
        have been stepped once under ``timed_steps()``."""
        import numpy as np

        scores, results = self.out / "scores", self.out / "results"
        step_p50, step_p99 = [], []

        def check_run():
            if timed_steps:
                if len(self.step_ns) != records:
                    return [f"{len(self.step_ns)} steps for {records} records"]
                p50, p99 = np.percentile(np.asarray(self.step_ns, dtype=np.float64), [50, 99])
                step_p50.append(p50 / 1e3)
                step_p99.append(p99 / 1e3)
                self.step_samples += records
            return self._check("scores", scores.glob("*.csv"),
                               lambda: check_scores(self.corpus, scores))

        def run_once():
            shutil.rmtree(self.out, ignore_errors=True)
            self.step_ns.clear()
            gc.collect()
            return self.ledger.op(
                "run", lambda: self.cli.cmd_run(self.cfg, workers=1), check_run)

        def score_once():
            shutil.rmtree(results, ignore_errors=True)
            return self.ledger.op(
                "score",
                lambda: self.cli.cmd_score(scores, self.corpus / "labels.json",
                                           list(PROFILES), results),
                lambda: self._check("results", [results / "results.json"],
                                    lambda: check_results(results / "results.json")))

        run_times = _repeat(RUN_MIN_S, run_once)
        if run_times is None:
            return None
        with contextlib.redirect_stdout(io.StringIO()):
            score_times = _repeat(SCORE_MIN_S, score_once)
        if score_times is None:
            return None
        return {"run_s": run_times, "step_p50_us": step_p50,
                "step_p99_us": step_p99, "score_s": score_times}

    def _check(self, key, paths, full_check):
        """Full check on the first output; later ones must be byte-identical."""
        digest = _digest(list(paths))
        if key not in self.digests:
            problems = full_check()
            if not problems:
                self.digests[key] = digest
            return problems
        return [] if digest == self.digests[key] else [f"{key} differ from the first repeat"]

    def nab_standard(self) -> float:
        doc = json.loads((self.out / "results" / "results.json").read_text())
        return next(r["normalized_score"] for r in doc if r["profile"] == "standard")

    def corpus_stats(self) -> dict:
        if not (self.corpus / "labels.json").is_file():  # the first build failed
            return {"files": 0, "records": 0, "labels": 0}
        files = sorted(self.corpus.glob("*.csv"))
        labels = json.loads((self.corpus / "labels.json").read_text())
        records = sum(len(p.read_text().splitlines()) - 1 for p in files)
        return {"files": len(files), "records": records,
                "labels": sum(len(v) for v in labels.values())}


def measure(bench: Bench, seconds: float, trace: bool, spans_path: Path):
    """Repeat the pipeline while another repeat fits in ``seconds``."""
    if trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
    with tracer.installed("setup") if trace else contextlib.nullcontext():
        first = bench.build(bench.corpus)
    setup_times = [] if trace or first is None else [first]
    stats = bench.corpus_stats()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while first is not None:
        started = time.perf_counter()
        if not trace:
            rebuilt = bench.rebuild()
            if rebuilt is None:
                break
            setup_times += rebuilt
        with bench.timed_steps():
            result = bench.pipeline(stats["records"], timed_steps=True)
        if result is None:
            break
        plain.append(result)
        if trace:
            with tracer.installed(f"repeat-{len(traced)}"):
                result = bench.pipeline(stats["records"], timed_steps=False)
            if result is None:
                break
            traced.append(result)
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break

    def calls(key):
        return [v for repeat in plain for v in repeat[key]]

    values = {name: calls(name) for name in ("run_s", "step_p50_us", "step_p99_us", "score_s")}
    values["setup_s"] = setup_times
    info = {
        "records": stats,
        "repeats": {"setup": len(setup_times), "pipeline": len(plain),
                    "run_calls": len(values["run_s"]), "score_calls": len(values["score_s"])},
        "spread": {name: _spread(v) for name, v in values.items()},
        "call_values": values,
        "step_samples": bench.step_samples,
    }
    if trace:
        overhead = 0.0
        if plain and traced:
            def pipeline_s(repeats):
                return statistics.median(statistics.fmean(r["run_s"])
                                         + statistics.fmean(r["score_s"]) for r in repeats)
            overhead = 100.0 * (pipeline_s(traced) / pipeline_s(plain) - 1.0)
        metrics = layer_metrics(tracer, overhead)
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(spans_path)
        info["traced_repeats"] = len(traced)
        info["spans"] = len(tracer.spans)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        return metrics, info
    metrics = {name: _trimmed_mean(v) for name, v in values.items()}
    run_s = metrics.pop("run_s")
    metrics["run_records_per_s"] = stats["records"] / run_s if run_s else 0.0
    metrics["nab_standard"] = bench.nab_standard() if plain else 0.0
    # read last; the harness's own memory does not grow with the calls made
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, info


def run_workload(args) -> int:
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    settings = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "machine": {
            "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "loadavg_start": os.getloadavg(),
        },
    }
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    bench = Bench(WORKLOADS[args.workload], args.seed, args.scale, work)
    try:
        values, info = measure(bench, args.seconds, bool(args.trace), spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    ledger = bench.ledger
    settings.update(info)
    settings["sha256"] = bench.digests
    settings["failed_ratio"] = len(ledger.failures) / ledger.attempted
    settings["failures"] = ledger.failures[:10]
    print(json.dumps(settings))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in (w["name"] for w in declared["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", str(args.scale)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    if status == 0:
        print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "htmpm").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout with BENCHMARK.json and src/htmpm "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
