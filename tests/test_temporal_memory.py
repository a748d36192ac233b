"""Temporal memory: prediction, bursting activation, distal learning.

Two references live here, not in the package: ``raw_anomaly_score``, the
definition that ``TemporalMemory.step``'s raw score is tested against, and
``from_state_dict``, which rebuilds a memory from ``state_dict()``.
"""

import copy
import hashlib
import math

import numpy as np
import pytest

from htmpm.cli import main
from htmpm.detectors import HtmDetector
from htmpm.errors import DimensionError, ValidationError
from htmpm.spatial_pooler import ColumnActivation
from htmpm.temporal_memory import MIN_MATCH, TemporalMemory
from test_memo import recording_replacements


def flat_tm(n_columns=4, **kwargs):
    """One cell per column so cell ids equal column ids."""
    defaults = dict(n_columns=n_columns, m_cells=1, activation_threshold=0,
                    perm_inc=0.1, perm_dec=0.1, perm_punish=0.01,
                    sample_size=2, max_segments_per_cell=4,
                    max_synapses_per_segment=4)
    defaults.update(kwargs)
    return TemporalMemory(**defaults)


def cols(active):
    """The pooler's output form: sorted active columns as an intp array."""
    return ColumnActivation(np.array(active, dtype=np.intp))


def raw_anomaly_score(predicted_columns, active_columns):
    """Fraction of active columns not predicted at the previous step.

    0 = fully anticipated, 1 = fully novel; 0 when no columns are active.
    """
    active = list(active_columns)
    if not active:
        return 0.0
    hits = sum(1 for c in active if c in predicted_columns)
    return (len(active) - hits) / len(active)


def from_state_dict(state):
    """A memory with the parameters and segments of ``state_dict()``."""
    tm = TemporalMemory(**state["params"])
    for cell, synapses in state["segments"]:
        tm.create_segment(cell, dict(synapses))
    return tm


class TestValidation:
    def test_punish_must_be_slower_than_dec(self):
        with pytest.raises(ValidationError):
            flat_tm(perm_punish=0.1, perm_dec=0.1)
        with pytest.raises(ValidationError):
            flat_tm(perm_punish=0.2, perm_dec=0.1)

    @pytest.mark.parametrize("active", [[-1], [5], [0, 4]])
    def test_out_of_range_columns_rejected(self, active):
        # a negative column would wrap to the last column and give its
        # winner a negative cell id; the state must stay untouched
        tm = TemporalMemory(n_columns=4, m_cells=2, activation_threshold=0)
        with pytest.raises(DimensionError, match=r"outside the memory's columns \[0, 4\)"):
            tm.step(cols(active))
        assert (tm.segment_count(), tm.active_cells.tolist(), tm.winner_cells.tolist()) == (0, [], [])
        tm.step(cols([0, 3]))
        assert tm.active_cells.tolist() == [0, 1, 6, 7]

    def test_all_zero_rates_allowed(self):
        flat_tm(perm_inc=0.0, perm_dec=0.0, perm_punish=0.0)

    def test_sample_size_bounded_by_segment_width(self):
        with pytest.raises(ValidationError):
            flat_tm(sample_size=8, max_synapses_per_segment=4)

    @pytest.mark.parametrize("kwargs", [
        dict(max_segments_per_cell=0), dict(max_segments_per_cell=-1),
        dict(initial_permanence=0.0), dict(initial_permanence=-0.5),
        dict(initial_permanence=1.5), dict(connect_threshold=0.0),
        dict(connect_threshold=1.0), dict(connect_threshold=1.5),
    ])
    def test_out_of_range_parameters_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            flat_tm(**kwargs)

    def test_range_edges_allowed(self):
        flat_tm(max_segments_per_cell=1, initial_permanence=1.0, connect_threshold=0.99)

    @pytest.mark.parametrize("threshold", [4, 5])
    def test_segment_too_narrow_to_predict_rejected(self, threshold):
        # strict '>': four synapses can never exceed a threshold of 4
        with pytest.raises(ValidationError, match=rf"activation_threshold \({threshold}\) "
                                                  r"must be < max_synapses_per_segment \(4\)"):
            flat_tm(activation_threshold=threshold)
        flat_tm(activation_threshold=3)


class TestPrediction:
    def test_no_segments_no_predictions(self):
        tm = flat_tm()
        tm.step(cols([0, 1]))
        assert tm.predictive_cells.tolist() == []

    def test_established_synapses_above_threshold_predict(self):
        tm = flat_tm(activation_threshold=1)
        tm.create_segment(2, {0: 0.6, 1: 0.6})
        tm.step(cols([0, 1]))
        assert tm.predictive_cells.tolist() == [2]

    def test_strict_threshold_boundary(self):
        # exactly threshold established active synapses does not predict
        tm = flat_tm(activation_threshold=2)
        tm.create_segment(2, {0: 0.6, 1: 0.6})
        tm.step(cols([0, 1]))
        assert tm.predictive_cells.tolist() == []

    def test_sub_threshold_permanence_counts_as_zero(self):
        tm = flat_tm(activation_threshold=1)
        tm.create_segment(2, {0: 0.6, 1: 0.49})
        tm.step(cols([0, 1]))
        assert tm.predictive_cells.tolist() == []


class TestActivation:
    def test_unpredicted_column_bursts_all_cells(self):
        tm = TemporalMemory(n_columns=3, m_cells=4, activation_threshold=0,
                            perm_punish=0.01)
        tm.step(cols([1]))
        assert tm.active_cells.tolist() == [4, 5, 6, 7]

    def test_predicted_cell_activates_alone(self):
        tm = TemporalMemory(n_columns=2, m_cells=2, activation_threshold=0,
                            perm_punish=0.01)
        # cell 2 (column 1) predicted by activity in column 0
        tm.create_segment(2, {0: 0.6, 1: 0.6})
        tm.step(cols([0]))
        assert tm.predictive_cells.tolist() == [2]
        tm.step(cols([1]))
        assert tm.active_cells.tolist() == [2]

    def test_inactive_columns_have_no_active_cells(self):
        tm = flat_tm()
        tm.create_segment(3, {0: 0.9})
        tm.step(cols([0]))
        tm.step(cols([1]))  # column 3 predicted but not activated
        assert tm.active_cells.tolist() == [1]

    def test_burst_winner_prefers_fewest_segments_then_lowest_index(self):
        tm = TemporalMemory(n_columns=1, m_cells=3, activation_threshold=0,
                            perm_punish=0.01)
        tm.create_segment(0, {1: 0.6})
        tm.step(cols([0]))
        # cells 1 and 2 have no segments; tie resolves to cell 1
        assert tm.winner_cells.tolist() == [1]

    def predicted_pair(self, strength4, strength5):
        """Cells 4 and 5 (column 1) predicted by segments with the given
        numbers of active synapses onto column 0's cells."""
        tm = TemporalMemory(n_columns=2, m_cells=3, activation_threshold=0,
                            perm_punish=0.01)
        tm.create_segment(4, {c: 0.6 for c in range(strength4)})
        tm.create_segment(5, {c: 0.6 for c in range(strength5)})
        tm.step(cols([0]))
        assert tm.predictive_cells.tolist() == [4, 5]
        tm.step(cols([1]))
        assert tm.active_cells.tolist() == [4, 5]
        return tm

    def test_predicted_winner_has_strongest_segment(self):
        assert self.predicted_pair(1, 3).winner_cells.tolist() == [5]
        assert self.predicted_pair(3, 1).winner_cells.tolist() == [4]

    def test_predicted_winner_tie_goes_to_lower_cell(self):
        assert self.predicted_pair(2, 2).winner_cells.tolist() == [4]


class TestLearning:
    def make_primed(self):
        """Two segments predicting cells 2 and 3 from activity in {0, 1}."""
        tm = flat_tm()
        r2 = tm.create_segment(2, {0: 0.6, 1: 0.6})
        r3 = tm.create_segment(3, {0: 0.5, 1: 0.5})
        tm.step(cols([0, 1]))
        assert tm.predictive_cells.tolist() == [2, 3]
        return tm, r2, r3

    def test_correct_prediction_reinforced(self):
        tm, r2, _ = self.make_primed()
        tm.step(cols([2]))
        assert tm.synapses_of(r2) == {
            0: pytest.approx(0.7), 1: pytest.approx(0.7)}

    def test_wrong_prediction_punished_at_slower_rate(self):
        tm, _, r3 = self.make_primed()
        tm.step(cols([2]))
        assert tm.synapses_of(r3) == {
            0: pytest.approx(0.49), 1: pytest.approx(0.49)}

    def test_forgetting_slower_than_updating(self):
        tm, r2, r3 = self.make_primed()
        before2 = tm.synapses_of(r2)[0]
        before3 = tm.synapses_of(r3)[0]
        tm.step(cols([2]))
        gained = tm.synapses_of(r2)[0] - before2
        lost = before3 - tm.synapses_of(r3)[0]
        assert 0 < lost < gained

    def test_decay_of_synapses_from_inactive_cells(self):
        tm = flat_tm()
        row = tm.create_segment(2, {0: 0.6, 3: 0.6})
        tm.step(cols([0]))
        tm.step(cols([2]))
        # presynaptic cell 3 was inactive: its synapse decays by dec
        assert tm.synapses_of(row)[3] == pytest.approx(0.5)

    def test_zero_rates_leave_state_unchanged(self):
        tm = flat_tm(perm_inc=0.0, perm_dec=0.0, perm_punish=0.0)
        row = tm.create_segment(2, {0: 0.6, 1: 0.6})
        before = tm.synapses_of(row)
        tm.step(cols([0, 1]))
        tm.step(cols([2]))
        assert tm.synapses_of(row) == before
        assert tm.segment_count() == 1

    def test_burst_grows_segment_onto_previous_winners(self):
        tm = flat_tm()
        tm.step(cols([0, 1]))       # burst, no previous winners: no growth
        assert tm.segment_count() == 0
        tm.step(cols([2]))          # burst with previous winners {0, 1}
        assert tm.segment_count() == 1
        row = tm.segments_of(2)[0]
        assert tm.synapses_of(row) == {
            0: pytest.approx(0.21), 1: pytest.approx(0.21)}

    def test_growth_skips_own_column(self):
        tm = flat_tm()
        tm.step(cols([0, 2]))
        tm.step(cols([2]))
        row = tm.segments_of(2)[0]
        assert 2 not in tm.synapses_of(row)

    def test_dead_synapses_destroyed(self):
        tm = flat_tm(perm_punish=0.05)
        row = tm.create_segment(2, {0: 0.04, 1: 0.6})
        tm.step(cols([0, 1]))
        tm.step(cols([3]))  # column 2 silent: punish drives synapse 0 to 0
        assert 0 not in tm.synapses_of(row)
        assert 1 in tm.synapses_of(row)


class TestSegmentBookkeeping:
    def test_lru_eviction_at_cap(self):
        tm = flat_tm(max_segments_per_cell=2)
        tm.create_segment(0, {1: 0.5})
        tm._step = 5
        tm.create_segment(0, {2: 0.5})
        tm._step = 9
        tm.create_segment(0, {3: 0.5})
        rows = tm.segments_of(0)
        presyn_sets = {frozenset(tm.synapses_of(r)) for r in rows}
        # the oldest segment (synapse onto cell 1) was evicted
        assert presyn_sets == {frozenset({2}), frozenset({3})}

    def test_lru_tie_evicts_lowest_row(self):
        tm = flat_tm(max_segments_per_cell=2)
        older, newer = (tm.create_segment(0, {p: 0.5}) for p in (1, 2))
        # equal last use: the victim is the lowest row, here the older segment
        assert tm.create_segment(0, {3: 0.5}) == older
        # and again now that the lowest row holds the newest segment
        assert tm.create_segment(0, {1: 0.5}) == older
        assert tm.segments_of(0).tolist() == [older, newer]
        assert [tm.synapses_of(r) for r in (older, newer)] == [{1: 0.5}, {2: 0.5}]

    def test_too_many_synapses_rejected(self):
        tm = flat_tm(max_synapses_per_segment=2)
        with pytest.raises(ValidationError):
            tm.create_segment(0, {1: 0.5, 2: 0.5, 3: 0.5})
        assert (tm.segment_count(), tm._n_rows) == (0, 0)

    @pytest.mark.parametrize("cell", [-1, 4])
    def test_owner_outside_cells_rejected(self, cell):
        tm = flat_tm()
        with pytest.raises(ValidationError, match=rf"cell {cell} outside \[0, 4\)"):
            tm.create_segment(cell, {1: 0.6})
        # no row was taken
        assert (tm.segment_count(), tm._n_rows) == (0, 0)

    @pytest.mark.parametrize("presyn", [-2, -1, 4])
    def test_presynaptic_cell_outside_cells_rejected(self, presyn):
        tm = flat_tm()
        with pytest.raises(ValidationError, match=rf"\[{presyn}\] outside \[0, 4\)"):
            tm.create_segment(0, {1: 0.6, presyn: 0.6})
        assert (tm.segment_count(), tm._n_rows) == (0, 0)

    @pytest.mark.parametrize("cell, synapses, match", [
        (1.5, {2.7: 5.0}, r"cell 1\.5 outside \[0, 4\) or not an integer"),
        (True, None, r"cell True outside \[0, 4\) or not an integer"),
        (1, {2.7: 0.5}, r"cell\(s\) \[2\.7\] outside \[0, 4\) or not integers"),
        (1, {False: 0.5}, r"cell\(s\) \[False\] outside \[0, 4\) or not integers"),
        (1, {2: 5.0}, r"permanence\(s\) \[5\.0\] outside \[0, 1\]"),
        (1, {2: -0.1}, r"permanence\(s\) \[-0\.1\] outside"),
        (1, {2: math.nan}, r"permanence\(s\) \[nan\] outside"),
        (1, {2: math.inf}, r"permanence\(s\) \[inf\] outside"),
        (1, {2: True}, r"permanence\(s\) \[True\] outside"),
        (1, {2: "0.5"}, r"permanence\(s\) \['0\.5'\] outside"),
    ], ids=["fractional_owner", "bool_owner", "fractional_presyn", "bool_presyn",
            "above_one", "negative", "nan", "inf", "bool_permanence", "text_permanence"])
    def test_fraction_or_bad_permanence_rejected(self, cell, synapses, match):
        tm = flat_tm()
        with pytest.raises(ValidationError, match=match):
            tm.create_segment(cell, synapses)
        assert (tm.segment_count(), tm._n_rows) == (0, 0)

    def test_refused_segment_evicts_nothing(self):
        tm = flat_tm(max_segments_per_cell=1)
        row = tm.create_segment(0, {1: 0.6})
        with pytest.raises(ValidationError):
            tm.create_segment(0, {-2: 0.6})
        assert tm.segments_of(0).tolist() == [row]
        assert tm.synapses_of(row) == {1: pytest.approx(0.6)}


def random_tm(seed):
    """A TM with random segments whose free synapse slots are scattered,
    and a random set of active cells for the segments to match."""
    rng = np.random.default_rng(seed)
    tm = TemporalMemory(n_columns=6, m_cells=3, activation_threshold=0,
                        sample_size=int(rng.integers(1, 6)),
                        max_synapses_per_segment=6)
    for _ in range(int(rng.integers(1, 30))):
        n_syn = int(rng.integers(0, 7))
        cells = rng.choice(tm.n_cells, size=n_syn, replace=False)
        row = tm.create_segment(int(rng.integers(tm.n_cells)),
                                {int(c): 0.5 for c in cells})
        tm.seg_presyn[row, rng.random(6) < 0.3] = tm._sentinel
    tm._active_arr[:-1] = rng.random(tm.n_cells) < rng.random()
    return tm, rng


def loop_grow(tm, row, winners):
    """Per-row reference for TemporalMemory._grow."""
    presyn = tm.seg_presyn[row]
    existing = {int(p) for p in presyn if p != tm._sentinel}
    budget = tm.sample_size - sum(1 for w in winners if w in existing)
    slots = [s for s in range(len(presyn)) if presyn[s] == tm._sentinel]
    own_col = int(tm.seg_cell[row]) // tm.m_cells
    for w in winners:
        if budget <= 0 or not slots:
            break
        if w in existing or w // tm.m_cells == own_col:
            continue
        s = slots.pop(0)
        tm.seg_presyn[row, s] = w
        tm.seg_perm[row, s] = tm.initial_permanence
        budget -= 1


def loop_burst_winners(tm, bursting):
    """Per-column reference for TemporalMemory._burst_winners: a winner
    reuses its best segment only with min(MIN_MATCH, sample_size) matches."""
    def match(row):
        return sum(1 for p in tm.seg_presyn[row]
                   if p != tm._sentinel and tm._active_arr[p])

    winners, matching_rows = [], []
    for col in bursting:
        cells = range(col * tm.m_cells, (col + 1) * tm.m_cells)
        winner = min(cells, key=lambda c: (
            -max((match(r) for r in tm.segments_of(c)), default=0),
            len(tm.segments_of(c)), c))
        best, best_n = -1, min(MIN_MATCH, tm.sample_size) - 1
        for r in tm.segments_of(winner):
            if match(r) > best_n:
                best, best_n = r, match(r)
        winners.append(winner)
        matching_rows.append(best)
    return winners, matching_rows


def loop_predictive(tm):
    """Per-segment reference for TemporalMemory._compute_predictive: each
    row's established synapses onto active cells, and the rows above the
    activation threshold."""
    counts = [
        sum(1 for p, q in zip(tm.seg_presyn[row], tm.seg_perm[row])
            if p != tm._sentinel and tm._active_arr[p] and q >= tm.connect_threshold)
        for row in range(tm._n_rows)
    ]
    return counts, [row for row, n in enumerate(counts) if n > tm.activation_threshold]


def random_predict_tm(seed):
    """A TM whose permanences sit below, exactly at and above the connect
    threshold, with scattered padding and random activity."""
    rng = np.random.default_rng(seed)
    tm = TemporalMemory(n_columns=5, m_cells=2,
                        activation_threshold=int(rng.integers(0, 4)),
                        max_synapses_per_segment=5, sample_size=2)
    for _ in range(int(rng.integers(0, 25))):
        cells = rng.choice(tm.n_cells, size=int(rng.integers(0, 6)), replace=False)
        tm.create_segment(int(rng.integers(tm.n_cells)),
                          {int(c): float(rng.choice([0.4, 0.5, 0.6])) for c in cells})
    tm._active_arr[:-1] = rng.random(tm.n_cells) < 0.6
    # exactly activation_threshold active synapses, each with a permanence
    # at the connect threshold: established, but not predictive (strict '>')
    cells = rng.choice(tm.n_cells, size=tm.activation_threshold, replace=False)
    tm._active_arr[cells] = True
    edge = tm.create_segment(0, {int(c): 0.5 for c in cells})
    return tm, edge


class TestVectorizedMatchesLoops:
    @pytest.mark.parametrize("seed", range(40))
    def test_grow(self, seed):
        tm, rng = random_tm(seed)
        rows = rng.choice(tm._n_rows, size=int(rng.integers(1, tm._n_rows + 1)),
                          replace=False)
        winners = np.sort(rng.choice(tm.n_cells, size=int(rng.integers(1, 10)),
                                     replace=False))
        ref = copy.deepcopy(tm)
        for row in rows:
            loop_grow(ref, int(row), [int(w) for w in winners])
        tm._grow(rows, winners)
        assert np.array_equal(tm.seg_presyn, ref.seg_presyn)
        assert np.array_equal(tm.seg_perm, ref.seg_perm)

    @pytest.mark.parametrize("seed", range(40))
    def test_burst_winners(self, seed):
        tm, rng = random_tm(seed)
        bursting = rng.choice(tm.n_columns, size=int(rng.integers(1, 7)), replace=False)
        winners, matching_rows, _ = tm._burst_winners(bursting)
        assert (winners.tolist(), matching_rows.tolist()) == loop_burst_winners(tm, bursting)

    @pytest.mark.parametrize("seed", range(40))
    def test_burst_winner_segment_counts(self, seed):
        tm, rng = random_tm(seed)
        bursting = rng.choice(tm.n_columns, size=int(rng.integers(1, 7)), replace=False)
        winners, _, counts = tm._burst_winners(bursting)
        assert counts.tolist() == [len(tm.segments_of(int(w))) for w in winners]

    @pytest.mark.parametrize("seed", range(40))
    def test_compute_predictive(self, seed):
        tm, edge = random_predict_tm(seed)
        tm._compute_predictive()
        counts, rows = loop_predictive(tm)
        assert tm._active_rows.tolist() == rows
        assert tm._active_counts.tolist() == [counts[row] for row in rows]
        assert counts[edge] == tm.activation_threshold and edge not in rows

    def test_counts_wider_than_a_byte(self):
        tm = TemporalMemory(n_columns=300, m_cells=1, activation_threshold=256,
                            sample_size=1, max_synapses_per_segment=300)
        row = tm.create_segment(0, {c: 0.6 for c in range(1, 281)})
        tm._active_arr[:-1] = True
        tm._compute_predictive()
        assert tm._active_counts.tolist() == [280] and tm._active_rows.tolist() == [row]


class TestBatchedAllocation:
    """A burst's new segments, allocated and grown in one batch, equal
    create_segment called once per lacking winner in column order and
    then grown by _grow."""

    @staticmethod
    def batch_and_sequence(tm, bursting):
        winners, matching_rows, counts = tm._burst_winners(np.array(bursting))
        lacking = matching_rows < 0
        ref = copy.deepcopy(tm)
        rows = tm._allocate(winners[lacking], counts[lacking])
        tm._grow(rows, tm._winners)
        ref_rows = [ref.create_segment(int(cell)) for cell in winners[lacking]]
        ref._grow(np.array(ref_rows), ref._winners)
        assert rows.tolist() == ref_rows
        for name in ("seg_cell", "seg_last_used", "seg_presyn", "seg_perm"):
            assert np.array_equal(getattr(tm, name), getattr(ref, name)), name
        assert tm._n_rows == ref._n_rows
        assert list(tm._memo) == list(ref._memo)
        return rows

    def test_burst_mixing_replaced_and_fresh_rows(self):
        tm = flat_tm(n_columns=8, max_segments_per_cell=2, sample_size=3)
        # cells 0 and 2 are at the cap; cell 0's least recently used segment
        # has an established synapse, cell 2's two segments tie
        for cell, synapses, last_used in [(0, {5: 0.3}, 5), (3, {5: 0.3}, 6),
                                          (0, {6: 0.6}, 3), (2, {5: 0.3}, 4),
                                          (2, {6: 0.3}, 4)]:
            tm.seg_last_used[tm.create_segment(cell, synapses)] = last_used
        tm._step = 7
        tm._winners = np.array([1, 4, 6])
        tm._memo[(b"columns", b"predicted")] = (np.empty(0), np.empty(0))
        rows = self.batch_and_sequence(tm, [0, 2, 3, 5, 7])
        # cell 0 replaces row 2, cell 2 its lower row 3; the rest take rows
        assert rows.tolist() == [2, 3, 5, 6, 7] and tm._n_rows == 8
        assert not tm._memo  # row 2 had an established synapse

    def test_burst_crossing_a_capacity_doubling(self):
        tm = flat_tm(n_columns=300, sample_size=3)
        for cell in range(250):
            tm.create_segment(cell)
        assert (tm._n_rows, len(tm.seg_cell)) == (250, 256)
        tm._step = 3
        tm._winners = np.array([1, 4, 6, 280])
        tm._memo[(b"columns", b"predicted")] = (np.empty(0), np.empty(0))
        rows = self.batch_and_sequence(tm, [3, 10] + list(range(270, 278)))
        assert rows.tolist() == list(range(250, 260))
        assert (tm._n_rows, len(tm.seg_cell)) == (260, 512)
        assert tm._memo  # no replaced segment, nothing connected


class TestRawScoreFromStep:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_raw_anomaly_score(self, seed):
        """The step's raw score equals raw_anomaly_score of the columns
        predicted before the step, while a cap of 2 segments per cell keeps
        replacing segments in place."""
        rng = np.random.default_rng(seed)
        tm = TemporalMemory(n_columns=8, m_cells=2, activation_threshold=1,
                            sample_size=3, max_segments_per_cell=2,
                            max_synapses_per_segment=6)
        replaced = recording_replacements(tm)
        patterns = [tuple(sorted(rng.choice(8, size=3, replace=False))) for _ in range(4)]
        raws = []
        for t in range(400):
            if rng.random() < 0.02:
                tm.reset()
            if rng.random() < 0.2:
                active = tuple(sorted(rng.choice(8, size=int(rng.integers(0, 4)),
                                                 replace=False)))
            else:
                active = patterns[t % len(patterns)]
            predicted = tm.predictive_columns
            raw = tm.step(cols(active))
            assert raw == raw_anomaly_score(predicted, active)
            raws.append(raw)
        assert replaced and min(raws) < 1.0


class TestMatchingCountedAtStep:
    """A segment created or replaced between steps counts the synapses it
    has when the column bursts, not what its row held before."""

    def test_new_segment_counts_its_synapses(self):
        # sample_size 2: two matching synapses reach the match threshold
        tm = TemporalMemory(n_columns=2, m_cells=2, activation_threshold=5,
                            perm_punish=0.01, sample_size=2)
        tm.step(cols([0]))  # cells 0 and 1 burst
        row = tm.create_segment(3, {0: 0.3, 1: 0.3})
        tm.step(cols([1]))
        # two matching synapses make cell 3 win over segment-less cell 2
        assert tm.winner_cells.tolist() == [3]
        assert tm.synapses_of(row) == {0: pytest.approx(0.4), 1: pytest.approx(0.4)}

    def test_replaced_segment_does_not_inherit_matches(self):
        tm = TemporalMemory(n_columns=3, m_cells=2, activation_threshold=5,
                            perm_punish=0.01, max_segments_per_cell=1)
        old = tm.create_segment(3, {0: 0.3, 1: 0.3})
        tm.step(cols([0]))  # row `old` matches 2 cells
        row = tm.create_segment(3, {5: 0.3})  # replaces it at the cap
        assert row == old
        tm.step(cols([1]))
        # cell 3's segment matches nothing: the winner is cell 2, which has
        # no segment, and cell 3's segment is left alone
        assert tm.winner_cells.tolist() == [2]
        assert tm.synapses_of(row) == {5: pytest.approx(0.3)}


class TestMatchThreshold:
    """A bursting winner reuses its best segment only when it has at least
    min(MIN_MATCH, sample_size) matching synapses; otherwise it grows a new
    segment and leaves the old one alone."""

    @pytest.mark.parametrize("sample_size, n_match, reused", [
        (20, MIN_MATCH - 1, False),
        (20, MIN_MATCH, True),
        (4, 3, False),
        (4, 4, True),
    ])
    def test_boundary(self, sample_size, n_match, reused):
        m = 12
        tm = TemporalMemory(n_columns=2, m_cells=m, activation_threshold=m,
                            perm_punish=0.01, sample_size=sample_size)
        tm.step(cols([0]))  # cells 0..11 burst, winner 0
        row = tm.create_segment(m + 1, {c: 0.3 for c in range(n_match)})
        tm.step(cols([1]))
        # the cell with the matching segment wins the burst either way
        assert tm.winner_cells.tolist() == [m + 1]
        rows = tm.segments_of(m + 1)
        if reused:
            assert rows.tolist() == [row]
            assert tm.synapses_of(row) == {
                c: pytest.approx(0.4) for c in range(n_match)}
        else:
            assert len(rows) == 2 and row in rows
            assert tm.synapses_of(row) == {
                c: pytest.approx(0.3) for c in range(n_match)}
            new = next(r for r in rows if r != row)
            assert tm.synapses_of(new) == {0: pytest.approx(0.21)}


class TestReset:
    def test_reset_clears_activity_keeps_segments(self):
        tm = flat_tm()
        tm.create_segment(2, {0: 0.6, 1: 0.6})
        tm.step(cols([0, 1]))
        assert tm.predictive_cells.tolist() == [2]
        n = tm.segment_count()
        tm.reset()
        assert tm.active_cells.tolist() == [] and tm.predictive_cells.tolist() == []
        assert tm.segment_count() == n

    def test_reset_idempotent(self):
        tm = flat_tm()
        tm.step(cols([0]))
        tm.reset()
        snapshot = (tm.active_cells.tolist(), tm.predictive_cells.tolist(), tm.segment_count())
        tm.reset()
        assert (tm.active_cells.tolist(), tm.predictive_cells.tolist(),
                tm.segment_count()) == snapshot


class TestSequenceLearning:
    def test_repeating_cycle_becomes_fully_predicted(self):
        tm = TemporalMemory(n_columns=9, m_cells=4, activation_threshold=1,
                            sample_size=2, max_synapses_per_segment=8,
                            perm_punish=0.01)
        patterns = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        for rep in range(20):
            for pat in patterns:
                tm.step(cols(pat))
        # after many repetitions, each pattern predicts the next
        for i, pat in enumerate(patterns):
            tm.step(cols(pat))
            nxt = set(patterns[(i + 1) % 3])
            assert tm.predictive_columns >= nxt


class TestRepeatedValues:
    def test_staircase_is_learned(self):
        """-0.5 and 0.0 each follow two different contexts in this cycle.
        A segment reused for both contexts is pulled back and forth on
        every cycle and raw stays near 0.26; with one segment per context
        the cycle becomes fully predicted."""
        cycle = [-1.0, -0.5, 0.0, 0.5, 1.0, 0.5, 0.0, -0.5]
        detector = HtmDetector({"value_min": -2.0, "value_max": 2.0}, seed=1,
                               use_likelihood=False)
        raws = [detector.step(None, cycle[i % 8]) for i in range(2000)]
        assert sum(raws[1000:]) / 1000 < 0.1


class TestQueries:
    def test_queries_are_sorted_index_arrays_the_caller_owns(self):
        """Each query is a sorted, distinct intp array; writing into one
        changes no later answer."""
        tm = TemporalMemory(n_columns=3, m_cells=2, activation_threshold=0,
                            perm_punish=0.01)
        tm.create_segment(5, {0: 0.6, 1: 0.6})
        tm.create_segment(4, {0: 0.6})
        tm.create_segment(5, {1: 0.6})
        tm.step(cols([0]))  # column 0 bursts; cell 5's two segments predict
        queries = [(lambda: tm.active_cells, [0, 1]), (lambda: tm.winner_cells, [0]),
                   (lambda: tm.predictive_cells, [4, 5]), (lambda: tm.segments_of(5), [0, 2])]
        for query, expected in queries:
            got = query()
            assert got.dtype == np.intp and got.tolist() == expected
            got[:] = 3
            assert query().tolist() == expected


class TestSerialization:
    def test_round_trip(self):
        tm = flat_tm()
        tm.create_segment(2, {0: 0.6, 1: 0.4})
        tm.step(cols([0, 1]))
        tm.step(cols([2]))
        state = tm.state_dict()
        clone = from_state_dict(state)
        assert clone.state_dict() == state
        assert clone.segment_count() == tm.segment_count()


class TestScoresGolden:
    # sha256 of each htm_hd score CSV for this corpus, computed when the
    # random distributed scalar encoder replaced the block encoder; TM
    # refactors must keep them byte-identical
    SCORES_SHA256 = {
        "degradation_00.csv": "b6e0942fc88ab13200541b913913f2a557d6494c0e890becdf6f60a03ea4955d",
        "degradation_01.csv": "decb76d76e57cac17de191120f2d561711bd72ce6d0ffc5abd9849fdc811f747",
    }

    def test_htm_hd_scores_unchanged(self, tmp_path):
        corpus, scores = tmp_path / "corpus", tmp_path / "scores"
        assert main(["synth", "--mode", "generate", "--output", str(corpus),
                     "--files", "2", "--duration", "20", "--sample-rate", "50",
                     "--seed", "7"]) == 0
        assert main(["run", "--corpus", str(corpus), "--output", str(scores),
                     "--detector", "htm_hd", "--seed", "1"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(scores.glob("*.csv"))}
        assert digests == self.SCORES_SHA256
