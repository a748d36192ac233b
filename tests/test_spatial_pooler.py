"""Spatial pooler: top-k inhibition and proximal learning."""

import hashlib

import numpy as np
import pytest

from htmpm import spatial_pooler
from htmpm.errors import DimensionError, ValidationError
from htmpm.spatial_pooler import ColumnActivation, SpatialPooler


def tiny_pooler(connected_sets, n_input=4, k=1, **rates):
    """Pooler with hand-chosen connected input sets per column."""
    sp = SpatialPooler(n_input=n_input, n_columns=len(connected_sets),
                       k_active=k, potential_fraction=1.0, seed=0, **rates)
    sp.permanences[:] = 0.1
    for c, bits in enumerate(connected_sets):
        sp.permanences[c, list(bits)] = 0.6
    sp.rebuild_connections()
    return sp


def bits(*indices):
    """Sorted active input indices, the pooler's input type."""
    return np.array(indices, dtype=np.intp)


def winners(sp, x):
    """One inhibition round without learning."""
    return sp.compute(x, learn=False).active_columns.tolist()


class TestComputeColumns:
    def test_hand_worked_top1(self):
        # columns connected to {0,1}, {2,3}, {1,2}; input {0,1} scores 2,0,1
        sp = tiny_pooler([{0, 1}, {2, 3}, {1, 2}])
        act = sp.compute(bits(0, 1), learn=False)
        assert act.active_columns.dtype == np.intp
        assert act.active_columns.tolist() == [0]

    def test_empty_input_activates_nothing(self):
        sp = tiny_pooler([{0, 1}, {2, 3}, {1, 2}], k=2)
        assert winners(sp, bits()) == []

    def test_zero_score_columns_never_activate(self):
        sp = tiny_pooler([{0, 1}, {2, 3}, {1, 2}], k=3)
        assert winners(sp, bits(0)) == [0]

    def test_k_equals_n_with_all_positive(self):
        sp = tiny_pooler([{0}, {0, 1}, {0, 2}], k=3)
        assert winners(sp, bits(0)) == [0, 1, 2]

    def test_tie_breaks_to_lowest_index(self):
        sp = tiny_pooler([{1}, {1}, {1}])
        assert winners(sp, bits(1)) == [0]
        # still lowest-index when an earlier column is excluded by score
        sp2 = tiny_pooler([{0}, {1}, {1}])
        assert winners(sp2, bits(1)) == [1]

    def test_scores_above_255_do_not_wrap(self):
        sp = tiny_pooler([set(range(256)), set(range(10))], n_input=300)
        assert winners(sp, bits(*range(300))) == [0]

    def test_dimension_mismatch(self):
        sp = tiny_pooler([{0, 1}])
        with pytest.raises(DimensionError):
            sp.compute(bits(4), learn=False)

    @pytest.mark.parametrize("x", [bits(0, 4), bits(-1, 0)])
    def test_any_bit_outside_the_input_rejected(self, x):
        sp = tiny_pooler([{0, 1}])
        with pytest.raises(DimensionError):
            sp.compute(x, learn=True)

    def test_invalid_k(self):
        for k in (0, -1, 2):
            with pytest.raises(ValidationError):
                tiny_pooler([{0, 1}], k=k)

    def test_determinism_at_scale(self):
        sp = SpatialPooler(n_input=400, n_columns=256, k_active=8, seed=3)
        x = bits(*range(100, 121))
        assert np.array_equal(sp.compute(x, learn=False).active_columns,
                              sp.compute(x, learn=False).active_columns)

    def test_output_sparsity_bounded_by_k(self):
        sp = SpatialPooler(n_input=400, n_columns=256, k_active=8, seed=3)
        act = sp.compute(bits(*range(21)), learn=False)
        assert len(act.active_columns) <= 8


class TestLearnProximal:
    """Input bit 0 active, column 0 the one winner."""

    def test_zero_rates_are_a_noop(self):
        sp = tiny_pooler([{0, 1}, {2, 3}], perm_inc=0.0, perm_dec=0.0)
        before = sp.permanences.copy()
        sp.learn_proximal(bits(0), bits(0))
        assert np.array_equal(sp.permanences, before)

    def test_increment_crosses_connect_threshold(self):
        sp = tiny_pooler([{0, 1}, {2, 3}], perm_inc=0.1, perm_dec=0.0)
        sp.permanences[0, 0] = 0.45
        sp.rebuild_connections()
        assert not sp.connected[0, 0]
        sp.learn_proximal(bits(0), bits(0))
        assert sp.permanences[0, 0] == pytest.approx(0.55)
        assert sp.connected[0, 0]

    def test_clamped_at_one(self):
        sp = tiny_pooler([{0, 1}, {2, 3}], perm_inc=0.1, perm_dec=0.0)
        sp.permanences[0, 0] = 0.98
        sp.learn_proximal(bits(0), bits(0))
        assert sp.permanences[0, 0] == 1.0

    def test_clamped_at_zero(self):
        sp = tiny_pooler([{0, 1}, {2, 3}], perm_inc=0.0, perm_dec=0.1)
        sp.permanences[0, 1] = 0.005
        sp.learn_proximal(bits(0), bits(0))
        assert sp.permanences[0, 1] == 0.0

    def test_inactive_columns_untouched(self):
        sp = tiny_pooler([{0, 1}, {2, 3}], perm_inc=0.1, perm_dec=0.05)
        before = sp.permanences[1].copy()
        sp.learn_proximal(bits(0), bits(0))
        assert np.array_equal(sp.permanences[1], before)

    def test_negative_rates_rejected(self):
        for rates in (dict(perm_inc=-0.1), dict(perm_dec=-0.1)):
            with pytest.raises(ValidationError):
                tiny_pooler([{0, 1}], **rates)

    def test_permanences_stay_in_unit_interval(self):
        sp = SpatialPooler(n_input=50, n_columns=32, k_active=4, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            sp.compute(np.sort(rng.choice(50, size=5, replace=False)), learn=True)
        assert sp.permanences.min() >= 0.0 and sp.permanences.max() <= 1.0


def dense_permanences(sp):
    """The pool-layout permanences expanded to n_columns x n_input."""
    dense = np.zeros((sp.n_columns, sp.n_input))
    dense[np.arange(sp.n_columns)[:, None], sp.pool] = sp.permanences
    return dense


class DensePooler:
    """Reference: the dense spatial pooler the pool layout replaced, with
    n_columns x n_input permanences masked by a boolean potential matrix."""

    def __init__(self, n_input, n_columns, k_active, potential_fraction,
                 connect_threshold, seed):
        self.n_input = n_input
        self.n_columns = n_columns
        self.k_active = k_active
        self.connect_threshold = connect_threshold
        rng = np.random.default_rng(seed)
        pool_size = max(1, int(round(potential_fraction * n_input)))
        self.potential = np.zeros((n_columns, n_input), dtype=bool)
        for c in range(n_columns):
            self.potential[c, rng.choice(n_input, size=pool_size, replace=False)] = True
        self.permanences = np.where(
            self.potential,
            rng.uniform(connect_threshold - 0.1, connect_threshold + 0.1,
                        size=(n_columns, n_input)),
            0.0,
        ).astype(np.float64)
        self._connected = self.permanences >= self.connect_threshold
        self._tiebreak = np.arange(n_columns, 0, -1, dtype=np.int64)

    def compute(self, x):
        k = self.k_active
        if x.size == 0:
            return ColumnActivation(bits())
        scores = self._connected[:, x].sum(axis=1, dtype=np.int64)
        key = scores * (self.n_columns + 1) + self._tiebreak
        if k < self.n_columns:
            top_idx = np.argpartition(key, self.n_columns - k)[self.n_columns - k:]
        else:
            top_idx = np.arange(self.n_columns)
        top = [int(c) for c in top_idx if scores[c] > 0]
        return ColumnActivation(bits(*sorted(top)))

    def learn_proximal(self, x, cols, inc, dec):
        """Proximal learning at the rates given for this step."""
        if not len(cols):
            return
        active_mask = np.zeros(self.n_input, dtype=bool)
        active_mask[x] = True
        pool = self.potential[cols]
        delta = np.where(active_mask, inc, -dec)
        updated = np.clip(
            self.permanences[cols] + np.where(pool, delta, 0.0), 0.0, 1.0
        )
        self.permanences[cols] = updated
        self._connected[cols] = updated >= self.connect_threshold


class TestPoolMatchesDense:
    """The pool layout reproduces the dense reference bit for bit: the
    initial draws, every activation and every learning step."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_poolers(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n_input = int(rng.integers(1, 30))
        n_columns = int(rng.integers(1, 40))
        k = n_columns if seed % 4 == 0 else int(rng.integers(1, n_columns + 1))
        fraction = 1.0 if seed % 3 == 0 else float(rng.uniform(0.05, 1.0))
        kwargs = dict(n_input=n_input, n_columns=n_columns, k_active=k,
                      potential_fraction=fraction,
                      connect_threshold=float(rng.uniform(0.1, 0.9)), seed=seed)
        # small draw chunks, so that the chunk boundaries fall inside the pooler
        monkeypatch.setattr(spatial_pooler, "_DRAW_CHUNK", int(rng.integers(1, 3 * n_input)))
        sp = SpatialPooler(**kwargs)
        ref = DensePooler(**kwargs)
        assert sp.pool.dtype == np.min_scalar_type(n_input - 1)
        assert np.all(np.diff(sp.pool.astype(np.int64), axis=1) > 0)
        pool_mask = np.zeros((n_columns, n_input), dtype=bool)
        pool_mask[np.arange(n_columns)[:, None], sp.pool] = True
        assert np.array_equal(pool_mask, ref.potential)
        assert dense_permanences(sp).tobytes() == ref.permanences.tobytes()
        rates = [0.0, 0.008, 0.05, 0.3]
        for _ in range(30):
            w = int(rng.integers(0, n_input + 1)) if rng.random() < 0.9 else 0
            x = np.sort(rng.choice(n_input, size=w, replace=False))
            act = sp.compute(x, learn=False)
            assert act.active_columns.dtype == np.intp
            assert np.array_equal(act.active_columns, ref.compute(x).active_columns)
            inc, dec = (float(r) for r in rng.choice(rates, size=2))
            sp.perm_inc, sp.perm_dec = inc, dec
            sp.learn_proximal(x, act.active_columns)
            ref.learn_proximal(x, act.active_columns, inc=inc, dec=dec)
            assert dense_permanences(sp).tobytes() == ref.permanences.tobytes()
            assert np.array_equal(sp.connected, sp.permanences >= sp.connect_threshold)


INIT_DIGESTS = [
    (dict(n_input=400, seed=1),
     "cbd158cff6f296017c9ab148554468bd65bcb91caed29a89a3b8905309db5089"),
    (dict(n_input=100, n_columns=500, k_active=10, potential_fraction=0.3,
          connect_threshold=0.4, seed=7),
     "ad63c6ed807b0f5b2ef77bfdf0f29a6e692bc4c8cda64f36dafe44a7cbf03d56"),
]


def init_digest(sp):
    return hashlib.sha256(dense_permanences(sp).tobytes()).hexdigest()


class TestInitGolden:
    """sha256 of the dense initial permanences, computed with the dense
    pooler: the chunked draws must reproduce its random stream."""

    @pytest.mark.parametrize("kwargs, digest", INIT_DIGESTS)
    def test_initial_permanences(self, kwargs, digest):
        sp = SpatialPooler(**kwargs)
        assert init_digest(sp) == digest


class TestPoolDrawnOnce:
    """Poolers built with the same arguments in one process share one
    pool draw, and each draws its own permanences after it."""

    @pytest.mark.parametrize("kwargs, digest", INIT_DIGESTS)
    def test_second_pooler_reuses_the_draw(self, kwargs, digest):
        spatial_pooler._pool_draw.cache_clear()
        first, second = SpatialPooler(**kwargs), SpatialPooler(**kwargs)
        assert spatial_pooler._pool_draw.cache_info().hits == 1
        assert first.pool is second.pool
        assert init_digest(first) == init_digest(second) == digest

    def test_permanences_are_independent(self):
        kwargs = dict(n_input=100, n_columns=64, k_active=8, seed=5)
        first, second = SpatialPooler(**kwargs), SpatialPooler(**kwargs)
        assert not np.shares_memory(first.permanences, second.permanences)
        perms, connected = second.permanences.copy(), second.connected.copy()
        before = first.permanences.copy()
        for _ in range(5):
            first.compute(bits(*range(40, 61)), learn=True)
        assert not np.array_equal(first.permanences, before)
        assert second.permanences.tobytes() == perms.tobytes()
        assert np.array_equal(second.connected, connected)

    def test_shared_pool_is_read_only(self):
        sp = SpatialPooler(n_input=50, n_columns=8, k_active=2, seed=3)
        with pytest.raises(ValueError):
            sp.pool[0, 0] = 1
