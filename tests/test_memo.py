"""The spatial pooler's and the temporal memory's memos change no result.

Each test runs a memoized layer next to a memo-free reference, built here
by giving the layer a memo whose ``get`` always misses, and requires the
two to agree step by step and in their final learned state. The evicting
stream's output is also pinned by hash, since both sides of a replay
change together.
"""

import hashlib
import json

import numpy as np
import pytest

from htmpm.detectors import HtmDetector
from htmpm.spatial_pooler import MEMO_ENTRIES, ColumnActivation, SpatialPooler
from htmpm.temporal_memory import TemporalMemory

# the criterion-7 cycle: -0.5 and 0.0 each follow two different contexts
STAIRCASE = [-1.0, -0.5, 0.0, 0.5, 1.0, 0.5, 0.0, -0.5]


class NeverHits(dict):
    """A memo that stores entries but never returns one."""

    def get(self, key, default=None):
        return default


def memo_free(layer):
    layer._memo = NeverHits()
    return layer


def counting_misses(tm):
    """Count the predict passes that the memo did not skip."""
    misses = []
    compute = tm._compute_predictive
    tm._compute_predictive = lambda: (misses.append(1), compute())
    return misses


def recording_replacements(tm):
    """Record each row that _allocate, the one way create_segment and
    learning take a row, returns while it already had an owner: a segment
    evicted at the cap and replaced in place."""
    replaced = []
    allocate = tm._allocate

    def wrapped(cells, counts):
        n_rows = tm._n_rows
        rows = allocate(cells, counts)
        replaced.extend(rows[rows < n_rows].tolist())
        return rows

    tm._allocate = wrapped
    return replaced


def trace(detector, values):
    """Per step: raw score, likelihood and the memory's active, winner and
    predictive cells."""
    raws = []
    step = detector.tm.step
    detector.tm.step = lambda cols: raws.append(step(cols)) or raws[-1]
    out = []
    for value in values:
        likelihood = detector.step(None, value)
        tm = detector.tm
        out.append((raws[-1], likelihood, tm.active_cells.tolist(), tm.winner_cells.tolist(),
                    tm.predictive_cells.tolist()))
    return out


def staircase(n, sigma=0.0):
    values = np.array([STAIRCASE[i % 8] for i in range(n)])
    if sigma:
        values += np.random.default_rng(1).normal(0.0, sigma, n)
    return values.tolist()


class TestDetectorReplay:
    @pytest.mark.parametrize("values, params, max_miss_share", [
        # the clean staircase repeats: most steps skip the predict pass
        (staircase(3000), {}, 0.5),
        (staircase(1500, sigma=0.05), {"n_columns": 1024}, 1.0),
        # two segments per cell: segments are evicted and their rows reused
        # between steps that hit the memo
        (staircase(1500, sigma=0.005), {"n_columns": 512, "m_cells": 4,
                                        "tm_max_segments_per_cell": 2}, 0.5),
        # grown synapses start connected, so growing alone rewires
        (staircase(1500), {"n_columns": 512, "m_cells": 4,
                           "tm_initial_permanence": 0.5}, 0.5),
    ], ids=["staircase", "noisy", "evicting", "grown_connected"])
    def test_same_as_memo_free(self, values, params, max_miss_share):
        params = {"value_min": -2.0, "value_max": 2.0, **params}
        memoized = HtmDetector(params, seed=1)
        reference = HtmDetector(params, seed=1)
        memo_free(reference.sp)
        memo_free(reference.tm)
        misses = counting_misses(memoized.tm)
        replaced = recording_replacements(memoized.tm)
        assert trace(memoized, values) == trace(reference, values)
        assert memoized.tm.state_dict() == reference.tm.state_dict()
        assert memoized.sp.permanences.tobytes() == reference.sp.permanences.tobytes()
        assert np.array_equal(memoized.sp.connected, reference.sp.connected)
        assert len(misses) <= max_miss_share * len(values)
        assert bool(replaced) == ("tm_max_segments_per_cell" in params)


class TestEvictionGolden:
    # sha256 of the scores and of json.dumps(state_dict()) for the evicting
    # replay's stream at caps of 2 and 1 segments per cell, computed when
    # the random distributed scalar encoder replaced the block encoder;
    # eviction must keep them byte-identical
    SHA256 = {
        2: ("a7204397c64fdc766cc9ada4ec3f4816d520c2bc4524ce6c6a10b97981c53f5d",
            "b67394d4c706f7d28032fc30586b6f147f8f50b864fa1afa72e52d07f60df33f"),
        1: ("d88dd53f88b77e6ae03d5cca6f9d85d2c13db46b80f62b1f45cebbaebd4e5a5b",
            "b04c61e6422a40f5f1bed1c1e756685360180520aed5ee19d1029fb32fdec520"),
    }

    @pytest.mark.parametrize("cap", [2, 1])
    def test_evicting_stream_unchanged(self, cap):
        detector = HtmDetector({"value_min": -2.0, "value_max": 2.0, "n_columns": 512,
                                "m_cells": 4, "tm_max_segments_per_cell": cap}, seed=1)
        replaced = recording_replacements(detector.tm)
        scores = [detector.step(None, v) for v in staircase(1500, sigma=0.005)]
        digests = tuple(hashlib.sha256(json.dumps(x).encode()).hexdigest()
                        for x in (scores, detector.tm.state_dict()))
        assert replaced
        assert digests == self.SHA256[cap]


def pooler():
    return SpatialPooler(n_input=40, n_columns=64, k_active=4, seed=3)


class TestSpatialPoolerInvalidation:
    def test_rebuild_after_permanence_edit(self):
        memoized, reference = pooler(), memo_free(pooler())
        x = np.arange(10, 17)
        first = memoized.compute(x, learn=False)
        assert memoized.compute(x, learn=False) is first  # a memo hit
        # leave column 63 the only connected column
        for sp in (memoized, reference):
            sp.permanences[:] = 0.0
            sp.permanences[63] = 1.0
            sp.rebuild_connections()
        got = memoized.compute(x, learn=False).active_columns
        assert np.array_equal(got, reference.compute(x, learn=False).active_columns)
        assert got.tolist() == [63] != first.active_columns.tolist()

    def test_learning_that_flips_a_connection(self):
        memoized, reference = pooler(), memo_free(pooler())
        rng = np.random.default_rng(0)
        inputs = [np.sort(rng.choice(40, size=7, replace=False)) for _ in range(3)]
        for t in range(300):
            x = inputs[t % 3]
            assert np.array_equal(memoized.compute(x).active_columns,
                                  reference.compute(x).active_columns)
        assert memoized.permanences.tobytes() == reference.permanences.tobytes()

    def test_active_columns_are_read_only(self):
        sp = pooler()
        for _ in range(2):  # a miss, then a hit
            columns = sp.compute(np.arange(7)).active_columns
            with pytest.raises(ValueError):
                columns[0] = 1


def flat_memory():
    """One cell per column, so that cell ids equal column ids."""
    return TemporalMemory(n_columns=6, m_cells=1, activation_threshold=0,
                          sample_size=2, max_segments_per_cell=4,
                          max_synapses_per_segment=4)


def step_both(tms, active):
    results = [(tm.step(ColumnActivation(np.array(active, dtype=np.intp))),
                tm.predictive_cells.tolist()) for tm in tms]
    assert results[0] == results[1]
    return results[0]


class TestTemporalMemoryInvalidation:
    def memories(self):
        tms = flat_memory(), memo_free(flat_memory())
        for _ in range(20):  # until the cycle repeats with no learning left to rewire
            step_both(tms, (0, 1))
            step_both(tms, (2, 3))
        return tms

    def test_create_connected_segment(self):
        tms = self.memories()
        _, before = step_both(tms, (0, 1))
        for tm in tms:
            tm.create_segment(5, {0: 0.6})
        _, after = step_both(tms, (0, 1))
        assert (before, after) == ([2, 3], [2, 3, 5])

    def test_create_unconnected_segment_keeps_the_memo(self):
        """A synapse implanted below the connect threshold crosses nothing,
        so the memo is kept: the next repeated step skips the predict pass."""
        tms = self.memories()
        misses = counting_misses(tms[0])
        for tm in tms:
            tm.create_segment(5, {0: 0.3})
        step_both(tms, (0, 1))
        assert not misses
        step_both(tms, (2, 3))
        assert tms[0].state_dict() == tms[1].state_dict()

    def test_replace_predicting_segment(self):
        """An empty segment replaces a predicting one at the cap of one
        segment per cell; learning is off, so nothing else rewires."""
        tms = [memo_free(tm) if i else tm for i, tm in enumerate(
            TemporalMemory(n_columns=6, m_cells=1, activation_threshold=0,
                           perm_inc=0.0, perm_dec=0.0, perm_punish=0.0,
                           max_segments_per_cell=1) for _ in range(2))]
        for tm in tms:
            row = tm.create_segment(5, {0: 0.6})
        for _ in range(2):  # the second round hits the memo
            _, before = step_both(tms, (0,))
            step_both(tms, (1,))
        for tm in tms:
            assert tm.create_segment(5) == row
        _, after = step_both(tms, (0,))
        assert before == [5] and after == []

    def test_rounding_onto_the_threshold_is_a_crossing(self):
        """0.4 + 0.09999999 is below 0.5 in float64 but stores as 0.5 in
        float32: the stored value connects the synapse."""
        tms = [memo_free(tm) if i else tm for i, tm in enumerate(
            TemporalMemory(n_columns=6, m_cells=1, activation_threshold=0,
                           perm_inc=0.09999999, sample_size=1) for _ in range(2))]
        assert 0.4 + 0.09999999 < 0.5
        for tm in tms:
            row = tm.create_segment(5, {0: 0.4})
        _, first = step_both(tms, (0,))
        step_both(tms, (5,))  # column 5 bursts and reinforces its segment
        assert [tm.synapses_of(row) for tm in tms] == [{0: 0.5}] * 2
        _, again = step_both(tms, (0,))
        assert again == [5] and first == []

    def test_memoized_rows_are_read_only(self):
        tm = self.memories()[0]
        with pytest.raises(ValueError):
            tm._active_rows[:] = 0


def test_memos_stay_bounded():
    """Inputs that never repeat on connections that never change (learning
    off) fill each memo to MEMO_ENTRIES and no further."""
    sp = pooler()
    tm = TemporalMemory(n_columns=64, m_cells=2, perm_inc=0.0, perm_dec=0.0,
                        perm_punish=0.0)
    rng = np.random.default_rng(0)
    for _ in range(3 * MEMO_ENTRIES):
        tm.step(sp.compute(np.sort(rng.choice(40, size=7, replace=False)), learn=False))
    assert len(sp._memo) == len(tm._memo) == MEMO_ENTRIES
