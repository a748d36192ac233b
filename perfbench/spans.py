"""In-memory span tracer over the public functions of the htmpm modules,
and the per-layer metrics derived from its spans.

``Tracer.install`` replaces every public function, method and property of
the htmpm modules (and every module-level name bound to one of those
functions) with a wrapper that records a span
``(span_id, parent_id, name, start_ns, end_ns, run_id)``. Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its direct
children. The tracer's own counting work runs in ``perfbench.counters``
spans, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("anomaly", "cli", "config", "detectors", "encoder", "nab",
           "psd_synth", "sdr", "series", "spatial_pooler", "temporal_memory")

# Helpers called once per element inside a traced layer (per timestamp,
# per candidate window, per encode). A span each would cost more than the
# work it measures, so their time stays in the caller's self time.
LEAF_HELPERS = frozenset({
    "series.parse_timestamp", "series.format_timestamp", "nab.sigma",
    "anomaly.gaussian_cdf", "encoder.ScalarEncoderConfig.n_buckets",
})

COUNTERS_SPAN = "perfbench.counters"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tm_states: list[tuple[int, int]] = []  # (segments, synapses) per stream
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list = []
        self._detector = None
        self._predictive_columns = None
        self._paused = False

    # ------------------------------------------------------------------
    # spans

    @contextmanager
    def _counting(self):
        """Span for the tracer's own counting; htmpm calls made while
        counting are not traced."""
        sid = self._open()
        start = time.perf_counter_ns()
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self._close(sid, COUNTERS_SPAN, start)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (sid, parent, name, start, end, self.run_id)

    def _wrap(self, name, fn):
        before, after = _OBSERVERS.get(name, (None, None))
        open_, close, clock = self._open, self._close, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            ctx = None
            if before is not None:
                with self._counting():
                    ctx = before(self, args)
            sid = open_()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid, name, start)
            if after is not None:
                with self._counting():
                    after(self, ctx, args, result)
            return result
        return traced

    # ------------------------------------------------------------------
    # patching

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module(f"htmpm.{m}") for m in MODULES]
        tm_cls = importlib.import_module("htmpm.temporal_memory").TemporalMemory
        self._predictive_columns = tm_cls.__dict__["predictive_columns"].fget
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{short}.{attr}" not in LEAF_HELPERS:
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def _install_class(self, prefix, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or name in LEAF_HELPERS:
                continue
            if inspect.isfunction(obj):
                new = self._wrap(name, obj)
            elif isinstance(obj, property) and obj.fget is not None:
                new = property(self._wrap(name, obj.fget), obj.fset, obj.fdel, obj.__doc__)
            elif isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(name, obj.__func__))
            else:
                continue
            self._patch(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self, run_id: str):
        self.run_id = run_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_csv(self, path) -> None:
        """All spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for sid, parent, name, start, end, run_id in self.spans:
                out.write(f"{run_id},{sid},{parent},{name},{start},{end}\n")


# ----------------------------------------------------------------------
# counters recorded at layer boundaries: (before(tracer, args) -> ctx,
# after(tracer, ctx, args, result))

def _tm_before(tracer, args):
    return tracer._predictive_columns(args[0])


def _tm_after(tracer, predicted, args, result):
    active = args[1].active_columns
    hits = sum(1 for c in active if c in predicted)
    tracer.counts["tm.active_columns"] += len(active)
    tracer.counts["tm.predicted_columns"] += len(predicted)
    tracer.counts["tm.predicted_and_active"] += hits


def _sp_after(tracer, ctx, args, result):
    tracer.counts["sp.active_columns"] += len(result.active_columns)


def _keep_detector(tracer, ctx, args, result):
    tracer._detector = result


def _stream_done(tracer, ctx, args, result):
    tm = getattr(tracer._detector, "tm", None)
    if tm is not None:
        segments = tm.state_dict()["segments"]
        tracer.tm_states.append((len(segments), sum(len(syn) for _, syn in segments)))


def _count_read(tracer, ctx, args, result):
    tracer.counts["series.records_read"] += len(result)


def _count_write(tracer, ctx, args, result):
    tracer.counts["series.records_written"] += len(args[1])


_OBSERVERS = {
    "temporal_memory.TemporalMemory.step": (_tm_before, _tm_after),
    "spatial_pooler.SpatialPooler.compute": (None, _sp_after),
    "detectors.build_detector": (None, _keep_detector),
    "detectors.run_file": (None, _stream_done),
    "series.read_series": (None, _count_read),
    "series.read_scores": (None, _count_read),
    "series.write_series": (None, _count_write),
    "series.write_scores": (None, _count_write),
}


# ----------------------------------------------------------------------
# per-layer metrics

def span_totals(spans) -> dict[str, list[int]]:
    """name -> [calls, inclusive ns, self ns]."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end, _ in spans:
        child_ns[parent] += end - start
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for sid, _, name, start, end, _ in spans:
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child_ns.get(sid, 0)
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of a tracer that saw one corpus build and the
    traced repeats; a layer that never ran reads 0."""
    totals = span_totals(tracer.spans)
    counts = tracer.counts

    def calls(name):
        return totals[name][0] if name in totals else 0

    def incl(*names):
        return sum(totals[n][1] for n in names if n in totals)

    def self_ns(*names):
        return sum(totals[n][2] for n in names if n in totals)

    def module_self(module):
        return sum(t[2] for n, t in totals.items() if n.startswith(module + "."))

    tm_step = "temporal_memory.TemporalMemory.step"
    sp_compute = "spatial_pooler.SpatialPooler.compute"
    steps = [n for n in totals if n.startswith("detectors.") and n.endswith(".step")]
    scores = calls("cli.cmd_score")
    segs = [s for s, _ in tracer.tm_states]
    syns = [s for _, s in tracer.tm_states]
    return {
        "temporal_memory.step_us": _ratio(module_self("temporal_memory"), calls(tm_step)) / 1e3,
        "temporal_memory.segments": _ratio(sum(segs), len(segs)),
        "temporal_memory.synapses": _ratio(sum(syns), len(syns)),
        "temporal_memory.burst_fraction": _ratio(
            counts["tm.active_columns"] - counts["tm.predicted_and_active"],
            counts["tm.active_columns"]),
        "temporal_memory.prediction_precision": _ratio(
            counts["tm.predicted_and_active"], counts["tm.predicted_columns"]),
        "spatial_pooler.overlap_us": _ratio(
            self_ns(sp_compute, "spatial_pooler.SpatialPooler.compute_columns"),
            calls(sp_compute)) / 1e3,
        "spatial_pooler.learn_us": _ratio(
            self_ns("spatial_pooler.SpatialPooler.learn_proximal"),
            calls("spatial_pooler.SpatialPooler.learn_proximal")) / 1e3,
        "spatial_pooler.active_columns": _ratio(counts["sp.active_columns"], calls(sp_compute)),
        "encoder.encode_us": _ratio(module_self("encoder"), calls("encoder.encode")) / 1e3,
        "anomaly.raw_us": _ratio(self_ns("anomaly.raw_anomaly_score"),
                                 calls("anomaly.raw_anomaly_score")) / 1e3,
        "anomaly.likelihood_us": _ratio(self_ns("anomaly.update_likelihood"),
                                        calls("anomaly.update_likelihood")) / 1e3,
        "detectors.build_ms": _ratio(incl("detectors.build_detector"),
                                     calls("detectors.build_detector")) / 1e6,
        "detectors.step_us": _ratio(self_ns(*steps), sum(calls(n) for n in steps)) / 1e3,
        "series.read_us_per_record": _ratio(
            self_ns("series.read_series", "series.read_scores"),
            counts["series.records_read"]) / 1e3,
        "series.write_us_per_record": _ratio(
            self_ns("series.write_series", "series.write_scores"),
            counts["series.records_written"]) / 1e3,
        "nab.optimize_threshold_s": _ratio(incl("nab.optimize_threshold"), scores) / 1e9,
        "nab.optimize_threshold_calls": _ratio(calls("nab.optimize_threshold"), scores),
        "nab.oracle_outputs_s": _ratio(incl("nab.oracle_outputs"), scores) / 1e9,
        "psd_synth.generate_s": incl("psd_synth.generate_degradation") / 1e9,
        "cli.run_self_s": _ratio(self_ns("cli.cmd_run"), calls("cli.cmd_run")) / 1e9,
        "cli.score_self_s": _ratio(self_ns("cli.cmd_score"), scores) / 1e9,
        "trace.overhead_pct": overhead_pct,
    }
