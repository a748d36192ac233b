"""The names that the benchmark in ``perfbench/`` reads from htmpm.

The benchmark's tracer finds a layer by the qualified name of the function
it wraps, and its harness and workloads call htmpm functions by name. A
renamed or moved function would zero a per-layer metric or stop a
workload without failing anything else, so each name is pinned here.
"""

import importlib
import inspect

import numpy as np
import pytest

from htmpm.detectors import DETECTOR_KINDS, DetectorConfig, build_detector
from htmpm.spatial_pooler import SpatialPooler
from htmpm.temporal_memory import TemporalMemory

# module -> functions defined in it that the tracer or the harness calls
FUNCTIONS = {
    "encoder": ["encode"],
    "anomaly": ["update_likelihood"],
    "detectors": ["build_detector", "run_file"],
    "series": ["read_series", "read_scores", "write_series", "write_scores", "write_labels"],
    "cli": ["cmd_run", "cmd_score", "cmd_synth_generate"],
    "psd_synth": ["generate_degradation"],
}

# (module, class, attribute, kind): methods the tracer wraps and observes,
# and the property and method its counters read
CLASS_ATTRIBUTES = [
    ("temporal_memory", "TemporalMemory", "step", "method"),
    ("temporal_memory", "TemporalMemory", "predictive_columns", "property"),
    ("temporal_memory", "TemporalMemory", "state_dict", "method"),
    ("spatial_pooler", "SpatialPooler", "compute", "method"),
    ("spatial_pooler", "SpatialPooler", "learn_proximal", "method"),
]


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in FUNCTIONS.items() for name in names])
def test_module_function(module, name):
    mod = importlib.import_module(f"htmpm.{module}")
    fn = vars(mod).get(name)
    # the tracer wraps only functions defined in the module it scans
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


@pytest.mark.parametrize("module, cls, attr, kind", CLASS_ATTRIBUTES)
def test_class_attribute(module, cls, attr, kind):
    owner = getattr(importlib.import_module(f"htmpm.{module}"), cls)
    # in the class's own namespace, where the tracer replaces it
    obj = vars(owner).get(attr)
    if kind == "property":
        assert isinstance(obj, property) and obj.fget is not None
    else:
        assert inspect.isfunction(obj)


def test_harness_classes():
    for module, name in [("config", "RunConfig"), ("detectors", "DetectorConfig"),
                         ("errors", "HtmpmError"), ("psd_synth", "DegradationModel")]:
        assert inspect.isclass(getattr(importlib.import_module(f"htmpm.{module}"), name))


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_detector_step_is_its_own(kind):
    """The harness times a detector by replacing ``step`` in the namespace
    of the class that ``build_detector`` returns."""
    detector = build_detector(DetectorConfig(kind, {}, 1))
    assert inspect.isfunction(vars(type(detector)).get("step"))


def test_pooler_output_feeds_the_memory():
    """The tracer counts ``.active_columns`` of the pooler's result and of
    the memory step's argument."""
    sp = SpatialPooler(n_input=50, n_columns=64, k_active=4, seed=0)
    tm = TemporalMemory(n_columns=64, m_cells=2)
    for start in (0, 10, 20, 0):
        activation = sp.compute(np.arange(start, start + 7))
        assert len(activation.active_columns) == 4
        assert 0.0 <= tm.step(activation) <= 1.0
    assert isinstance(tm.predictive_columns, set)
    assert set(tm.state_dict()) == {"params", "segments"}
