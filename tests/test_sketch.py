"""Tests for the bounded-memory sketch tier (repro.sketch).

Covers the approximate structures in isolation (decayed count-min sketch,
bloom filter), the :class:`SketchTier` evict/estimate contract, the
:class:`BoundedCellStore` cap enforcement, and the end-to-end behavior of
``EDMStream(memory_cap_bytes=...)`` — including the guarantee that leaving
the cap unset takes none of the bounded code paths.
"""

import math
import sys

import numpy as np
import pytest

from repro.core.cellstore import CellStore
from repro.core.decay import DecayModel
from repro.core.edmstream import EDMStream
from repro.core.soa import CellArrays
from repro.distance import get_metric
from repro.sketch import (
    BloomFilter,
    BoundedCellStore,
    DecayedCountMinSketch,
    SketchTier,
    cell_state_footprint,
    stable_key_hash,
)


class TestStableKeyHash:
    def test_deterministic_across_calls(self):
        assert stable_key_hash((3, -1)) == stable_key_hash((3, -1))

    def test_lattice_neighbors_do_not_collide(self):
        keys = {stable_key_hash((i, j)) for i in range(-20, 20) for j in range(-20, 20)}
        assert len(keys) == 1600

    def test_order_sensitive(self):
        assert stable_key_hash((1, 2)) != stable_key_hash((2, 1))


class TestDecayedCountMinSketch:
    def test_fold_round_trip_without_elapsed_time(self):
        cms = DecayedCountMinSketch(width=256, depth=4, decay=DecayModel())
        cms.fold((3, -1), 5.0, now=10.0)
        assert cms.estimate((3, -1), now=10.0) == pytest.approx(5.0)

    def test_estimate_ages_like_the_decay_model(self):
        decay = DecayModel(a=0.998, lam=1.0)
        cms = DecayedCountMinSketch(width=256, depth=4, decay=decay)
        cms.fold((0, 0), 8.0, now=0.0)
        expected = 8.0 * decay.rate**25.0
        assert cms.estimate((0, 0), now=25.0) == pytest.approx(expected)

    def test_fold_is_max_merge_idempotent(self):
        # Evict -> revive -> evict must not double-count: folding the same
        # absolute density twice leaves the estimate unchanged.
        cms = DecayedCountMinSketch(width=256, depth=4, decay=DecayModel())
        cms.fold((5, 5), 3.0, now=1.0)
        cms.fold((5, 5), 3.0, now=1.0)
        assert cms.estimate((5, 5), now=1.0) == pytest.approx(3.0)

    def test_fold_keeps_the_larger_aged_value(self):
        cms = DecayedCountMinSketch(width=256, depth=4, decay=DecayModel())
        cms.fold((1, 1), 10.0, now=0.0)
        cms.fold((1, 1), 0.5, now=0.0)  # smaller fold must not clobber
        assert cms.estimate((1, 1), now=0.0) == pytest.approx(10.0)

    def test_add_accumulates(self):
        cms = DecayedCountMinSketch(width=256, depth=4, decay=DecayModel())
        for _ in range(7):
            cms.add((2, 2), 1.0, now=0.0)
        assert cms.estimate((2, 2), now=0.0) == pytest.approx(7.0)

    def test_never_underestimates_folded_mass(self):
        cms = DecayedCountMinSketch(width=64, depth=4, decay=DecayModel())
        rng = np.random.default_rng(3)
        truth = {}
        for _ in range(300):
            key = (int(rng.integers(0, 50)), int(rng.integers(0, 50)))
            value = float(rng.uniform(0.1, 5.0))
            cms.fold(key, value, now=0.0)
            truth[key] = max(truth.get(key, 0.0), value)
        for key, value in truth.items():
            assert cms.estimate(key, now=0.0) >= value - 1e-9

    def test_unseen_key_estimates_zero_when_uncrowded(self):
        cms = DecayedCountMinSketch(width=4096, depth=4, decay=DecayModel())
        cms.fold((0, 0), 5.0, now=0.0)
        assert cms.estimate((123, 456), now=0.0) == pytest.approx(0.0)

    def test_load_and_nbytes(self):
        cms = DecayedCountMinSketch(width=128, depth=2, decay=DecayModel())
        assert cms.load(now=0.0) == 0.0
        # Counter + timestamp grids dominate; hash parameters add a sliver.
        assert 128 * 2 * 8 * 2 <= cms.nbytes() < 128 * 2 * 8 * 2 + 256
        cms.fold((9, 9), 1.0, now=0.0)
        assert 0.0 < cms.load(now=0.0) <= 2 / 128

    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            DecayedCountMinSketch(width=0)
        with pytest.raises(ValueError):
            DecayedCountMinSketch(depth=0)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(capacity=1000, error_rate=0.01)
        keys = [(i, i * 3) for i in range(500)]
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_near_design_point(self):
        bloom = BloomFilter(capacity=2000, error_rate=0.01, seed=5)
        for i in range(2000):
            bloom.add((i, 0))
        false_hits = sum((i, 1) in bloom for i in range(10000))
        assert false_hits / 10000 < 0.05  # design point 1%, generous slack

    def test_add_is_idempotent_for_fill_ratio(self):
        bloom = BloomFilter(capacity=100, error_rate=0.01)
        bloom.add((1, 2))
        ratio = bloom.fill_ratio()
        bloom.add((1, 2))
        assert bloom.fill_ratio() == ratio

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(capacity=100)
        assert (0, 0) not in bloom


class TestSketchTier:
    def tier(self, **kwargs):
        return SketchTier(decay=DecayModel(), radius=0.5, **kwargs)

    def test_key_quantises_by_cell_diameter(self):
        tier = self.tier()
        # box = 2 * radius = 1.0
        assert tier.key_of((0.2, 0.7)) == (0, 0)
        assert tier.key_of((1.2, -0.3)) == (1, -1)

    def test_evict_then_estimate_revives_density(self):
        tier = self.tier(revive_min=0.05)
        tier.evict((3.2, 3.4), 4.0, now=10.0)
        # A later point in the same grid box sees the aged density.
        estimate = tier.estimate((3.4, 3.1), now=10.0)
        assert estimate == pytest.approx(4.0)
        assert tier.evictions == 1

    def test_unknown_region_estimates_zero(self):
        tier = self.tier()
        tier.evict((3.2, 3.4), 4.0, now=0.0)
        assert tier.estimate((50.0, 50.0), now=0.0) == 0.0

    def test_estimates_below_revive_min_are_suppressed(self):
        tier = self.tier(revive_min=0.5)
        tier.evict((0.0, 0.0), 0.4, now=0.0)
        assert tier.estimate((0.0, 0.0), now=0.0) == 0.0

    def test_stats_counters(self):
        tier = self.tier()
        tier.evict((0.0, 0.0), 2.0, now=0.0)
        tier.record_revival(1.5)
        stats = tier.stats()
        assert stats["evictions"] == 1
        assert stats["revivals"] == 1
        assert stats["folded_density"] == pytest.approx(2.0)
        assert stats["revived_density"] == pytest.approx(1.5)
        assert stats["sketch_bytes"] == tier.nbytes()

    def test_auto_sized_fits_small_caps(self):
        tier = SketchTier.auto_sized(
            decay=DecayModel(), radius=0.5, memory_cap_bytes=40_000
        )
        assert tier.nbytes() < 40_000 // 4
        # Defaults are upper bounds: a huge cap keeps the configured geometry.
        big = SketchTier.auto_sized(
            decay=DecayModel(), radius=0.5, memory_cap_bytes=1 << 30
        )
        assert big.cms.width == 4096


def _bounded_fixture(n_cells, cap=1 << 20, radius=0.5):
    """An arena + stores + tier holding ``n_cells`` inactive cells.

    Returns ``(bounded, ids)``: the cell ids in creation (= coldness) order.
    Cell ``i`` was created at time ``i`` with density ``1 + i % 7`` and
    has ``last_absorb = i``, so lower indices are colder.
    """
    decay = DecayModel()
    metric = get_metric("euclidean")
    arena = CellArrays(numeric=True, log_rate=decay.log_rate)
    active = CellStore(numeric=True, metric=metric, arrays=arena)
    inactive = CellStore(numeric=True, metric=metric, arrays=arena)
    tier = SketchTier.auto_sized(decay=decay, radius=radius, memory_cap_bytes=cap)
    bounded = BoundedCellStore(
        arena=arena,
        active=active,
        inactive=inactive,
        tier=tier,
        memory_cap_bytes=cap,
    )
    ids = []
    for i in range(n_cells):
        cell_id = arena.create(
            seed=(float(i), float(-i)),
            key=math.log(1.0 + (i % 7)) + arena.arrival_key(float(i)),
            created_at=float(i),
            last_absorb=float(i),
        )
        inactive.add(cell_id)
        ids.append(cell_id)
    return bounded, ids


class TestBoundedCellStore:
    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            _bounded_fixture(0, cap=0)

    def test_rejects_cap_smaller_than_sketch(self):
        with pytest.raises(ValueError):
            _bounded_fixture(0, cap=4096)

    def test_evict_coldest_is_lru_by_last_absorb(self):
        bounded, ids = _bounded_fixture(10)
        evicted = bounded.evict_coldest(3, now=100.0)
        assert evicted == 3
        # The first three created cells had the stalest last_absorb.
        assert all(cell_id not in bounded.arena for cell_id in ids[:3])
        assert all(cell_id in bounded.arena for cell_id in ids[3:])
        assert len(bounded.inactive) == 7
        assert bounded.tier.evictions == 3

    def test_eviction_folds_decayed_density(self):
        bounded, _ = _bounded_fixture(1)
        decay = bounded.tier.decay
        bounded.evict_coldest(1, now=50.0)
        expected = 1.0 * decay.rate**50.0  # cell 0: density 1.0 at t=0
        estimate = bounded.tier.estimate((0.0, 0.0), now=50.0)
        assert estimate == pytest.approx(expected)

    def test_revival_density_counts_revivals(self):
        bounded, _ = _bounded_fixture(1)
        bounded.evict_coldest(1, now=0.0)
        assert bounded.revival_density((0.0, 0.0), now=0.0) == pytest.approx(1.0)
        assert bounded.tier.revivals == 1
        # A region never evicted revives nothing and counts nothing.
        assert bounded.revival_density((99.0, 99.0), now=0.0) == 0.0
        assert bounded.tier.revivals == 1

    def test_enforce_trims_back_under_cap(self):
        bounded, _ = _bounded_fixture(400)
        cap = bounded.note_peak() - 10_000  # force an overshoot
        bounded.memory_cap_bytes = cap
        evicted = bounded.enforce(now=1000.0)
        assert evicted > 0
        assert bounded.memory_footprint()["total"] <= cap
        assert bounded.cap_overflows == 0

    def test_stats_reports_peak_and_cap(self):
        bounded, _ = _bounded_fixture(5)
        stats = bounded.stats()
        assert stats["memory_cap_bytes"] == 1 << 20
        assert stats["cell_state_bytes"] > 0
        assert stats["peak_cell_state_bytes"] >= stats["cell_state_bytes"]
        assert stats["cap_overflows"] == 0

    def test_cell_state_footprint_components(self):
        bounded, _ = _bounded_fixture(5)
        footprint = cell_state_footprint(
            bounded.arena, bounded.active, bounded.inactive, sketch_bytes=123
        )
        assert footprint["sketch"] == 123
        assert footprint["total"] == (
            footprint["arena"]
            + footprint["side_state"]
            + footprint["stores"]
            + footprint["sketch"]
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_side_state_allowance_costs_a_seed_tuple_per_cell(self, dtype):
        """The allowance for a 34-d cell is 1,328 bytes, whether or not a tuple is kept.

        A float64 arena keeps no seed object (its row is the seed), but the
        allowance still costs one d-tuple of floats, ``getsizeof`` plus 24
        bytes per float, and 200 bytes of map entries: the calibrated value
        eviction under a cap depends on.
        """
        arena = CellArrays(dtype=dtype)
        seeds = np.random.default_rng(4).normal(size=(7, 34))
        arena.create_many(seeds)
        assert (arena._seed_obj is None) == (dtype == np.float64)
        per_cell = sys.getsizeof(tuple(seeds[0].tolist())) + 24 * 34 + 200
        assert per_cell == 1328
        footprint = cell_state_footprint(arena, CellStore(arrays=arena), CellStore(arrays=arena))
        assert footprint["side_state"] == 7 * per_cell


class TestMassEviction:
    """Satellite coverage: thousands of evictions through the free-list."""

    N = 3000

    def test_mass_eviction_recycles_every_slot(self):
        bounded, ids = _bounded_fixture(self.N)
        arena = bounded.arena
        high_water = arena.high_water
        evicted = bounded.evict_coldest(self.N, now=float(self.N))
        assert evicted == self.N
        assert len(arena) == 0
        assert arena.n_free == high_water
        assert len(bounded.inactive) == 0
        arena.validate()
        # Reallocation drains the free-list without growing the arena.
        capacity = arena.capacity
        base = max(ids) + 1
        for i in range(self.N):
            arena.allocate(base + i, (float(i), 0.0))
        assert arena.capacity == capacity
        assert arena.n_free == high_water - self.N
        arena.validate()

    def test_mass_eviction_invalidates_store_caches(self):
        bounded, ids = _bounded_fixture(self.N)
        inactive = bounded.inactive
        ids_before = inactive.ids_array()
        seeds_before = inactive.seed_view()
        assert ids_before.size == self.N
        assert seeds_before is not None and seeds_before.shape[0] == self.N
        bounded.evict_coldest(self.N // 2, now=float(self.N))
        ids_after = inactive.ids_array()
        seeds_after = inactive.seed_view()
        assert ids_after.size == self.N - self.N // 2
        assert seeds_after.shape[0] == self.N - self.N // 2
        # The survivors are exactly the hottest (most recently created) half.
        assert set(ids_after.tolist()) == set(ids[self.N // 2 :])
        inactive.validate()
        bounded.arena.validate()

    def test_interleaved_eviction_and_allocation(self):
        bounded, _ = _bounded_fixture(self.N)
        arena = bounded.arena
        inactive = bounded.inactive
        next_id = self.N
        rng = np.random.default_rng(11)
        for round_no in range(6):
            bounded.evict_coldest(250, now=float(self.N + round_no))
            for _ in range(int(rng.integers(50, 150))):
                cell_id = arena.create(
                    seed=(float(next_id % 97), float(next_id % 89)),
                    key=arena.arrival_key(float(next_id)),
                    created_at=float(next_id),
                    last_absorb=float(next_id),
                )
                inactive.add(cell_id)
                next_id += 1
            arena.validate()
            inactive.validate()
        assert len(arena) == len(inactive)


def _cluster_stream(n, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 5.0], [5.0, 0.0]])
    points = []
    for i in range(n):
        if rng.random() < 0.1:
            points.append(tuple(rng.uniform(-3.0, 8.0, size=2)))
        else:
            center = centers[int(rng.integers(0, len(centers)))]
            points.append(tuple(center + rng.normal(0.0, 0.3, size=2)))
    return points


class TestBoundedEDMStream:
    def test_cap_requires_numeric_metric(self):
        with pytest.raises(ValueError, match="numeric"):
            EDMStream(radius=0.5, metric="jaccard", memory_cap_bytes=1 << 20)

    def test_bounded_run_stays_under_cap_and_clusters(self):
        points = _cluster_stream(6000, seed=2)
        exact = EDMStream(radius=0.4, beta=0.0021, stream_rate=1000.0)
        for i, p in enumerate(points):
            exact.learn_one(p, timestamp=i / 1000.0)
        cap = max(exact.memory_footprint()["total"] // 2, 65_536)

        capped = EDMStream(
            radius=0.4, beta=0.0021, stream_rate=1000.0, memory_cap_bytes=cap
        )
        peak = 0
        for i, p in enumerate(points):
            capped.learn_one(p, timestamp=i / 1000.0)
            if i % 500 == 0:
                peak = max(peak, capped.memory_footprint()["total"])
        bounded = capped.bounded_store
        peak = max(peak, bounded.peak_bytes)
        assert peak <= cap
        assert bounded.cap_overflows == 0
        assert bounded.tier.evictions > 0
        assert capped.n_clusters == exact.n_clusters
        capped._cells.validate()

    def test_bounded_batch_run_stays_under_cap(self):
        from repro.streams.point import StreamPoint

        points = [
            StreamPoint(values=p, timestamp=i / 1000.0, label=None, point_id=i)
            for i, p in enumerate(_cluster_stream(6000, seed=3))
        ]
        exact = EDMStream(radius=0.4, beta=0.0021, stream_rate=1000.0)
        exact.learn_many(points, batch_size=256)
        cap = max(exact.memory_footprint()["total"] // 2, 65_536)

        capped = EDMStream(
            radius=0.4, beta=0.0021, stream_rate=1000.0, memory_cap_bytes=cap
        )
        capped.learn_many(points, batch_size=256)
        bounded = capped.bounded_store
        assert bounded.peak_bytes <= cap
        assert bounded.cap_overflows == 0
        assert bounded.tier.evictions > 0
        assert capped.n_clusters == exact.n_clusters
        capped._cells.validate()

    def test_unset_cap_takes_no_bounded_paths(self):
        model = EDMStream(radius=0.4)
        assert model.bounded_store is None
        assert model.memory_footprint()["sketch"] == 0
        model.learn_one((0.0, 0.0), timestamp=0.0)
        snapshot = model.snapshot()
        assert "memory" not in snapshot.metadata
        assert "memory" not in model.summary()

    def test_bounded_summary_and_snapshot_report_sketch_stats(self):
        model = EDMStream(radius=0.4, memory_cap_bytes=1 << 20)
        for i, p in enumerate(_cluster_stream(500, seed=4)):
            model.learn_one(p, timestamp=i / 1000.0)
        memory = model.summary()["memory"]
        assert memory["memory_cap_bytes"] == 1 << 20
        assert memory["cell_state_bytes"] > 0
        snapshot = model.snapshot()
        assert snapshot.metadata["memory"]["memory_cap_bytes"] == 1 << 20

    def test_revived_cell_carries_sketch_density(self):
        model = EDMStream(radius=0.4, beta=0.0021, stream_rate=1000.0,
                          memory_cap_bytes=1 << 20)
        # Build a cold cell, force-evict it, then re-arrive in its box.
        for i in range(20):
            model.learn_one((10.0, 10.0), timestamp=i / 1000.0)
        bounded = model.bounded_store
        # Make every cell inactive-evictable except none are active yet.
        n_before = len(model._cells)
        assert n_before > 0
        evicted = bounded.evict_coldest(len(model._inactive), now=0.02)
        assert evicted > 0
        assert bounded.tier.evictions == evicted
        model.learn_one((10.0, 10.0), timestamp=0.03)
        assert bounded.tier.revivals >= 1
        revived = [c for c in model.reservoir.cells()] + list(model._active.cells())
        assert any(c.density_at(model.now) > 1.5 for c in revived)

    def test_config_validates_cap(self):
        with pytest.raises(ValueError):
            EDMStream(radius=0.5, memory_cap_bytes=-1)
