"""Tests for the vectorised cell store cache."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cell import ClusterCell
from repro.core.cellstore import CellStore
from repro.core.decay import DecayModel
from repro.distance import jaccard_distance


def make_cell(seed, density=1.0):
    return ClusterCell(seed=seed, density=density)


class TestMembership:
    def test_add_and_lookup(self):
        store = CellStore()
        cell = make_cell((1.0, 2.0))
        store.add(cell)
        assert len(store) == 1
        assert cell.cell_id in store
        assert store.get(cell.cell_id) is cell
        assert store.ids() == [cell.cell_id]

    def test_duplicate_add_rejected(self):
        store = CellStore()
        cell = make_cell((1.0, 2.0))
        store.add(cell)
        with pytest.raises(KeyError):
            store.add(cell)

    def test_dimension_mismatch_rejected(self):
        store = CellStore()
        store.add(make_cell((1.0, 2.0)))
        with pytest.raises(ValueError):
            store.add(make_cell((1.0, 2.0, 3.0)))

    def test_remove_swaps_last_into_place(self):
        store = CellStore()
        cells = [make_cell((float(i), 0.0)) for i in range(5)]
        for cell in cells:
            store.add(cell)
        store.remove(cells[1].cell_id)
        assert len(store) == 4
        assert cells[1].cell_id not in store
        store.validate()

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            CellStore().remove(77)

    def test_growth_beyond_initial_capacity(self):
        store = CellStore()
        cells = [make_cell((float(i),)) for i in range(200)]
        for cell in cells:
            store.add(cell)
        assert len(store) == 200
        store.validate()

    def test_non_numeric_store_requires_metric(self):
        with pytest.raises(ValueError):
            CellStore(numeric=False)


class TestQueries:
    def test_distances_to(self):
        store = CellStore()
        store.add(make_cell((0.0, 0.0)))
        store.add(make_cell((3.0, 4.0)))
        distances = store.distances_to((0.0, 0.0))
        assert distances == pytest.approx([0.0, 5.0])

    def test_distances_to_subset(self):
        store = CellStore()
        cells = [make_cell((float(i), 0.0)) for i in range(4)]
        for cell in cells:
            store.add(cell)
        subset = store.distances_to_subset((0.0, 0.0), np.asarray([1, 3]))
        assert subset == pytest.approx([1.0, 3.0])

    def test_densities_at_applies_lazy_decay(self):
        decay = DecayModel(a=0.5, lam=1.0)
        store = CellStore()
        cell = make_cell((0.0,), density=8.0)
        cell.last_update = 0.0
        store.add(cell)
        densities = store.densities_at(2.0, decay)
        assert densities == pytest.approx([2.0])

    def test_update_density_and_delta_keep_cache_coherent(self):
        decay = DecayModel()
        store = CellStore()
        cell = make_cell((0.0,))
        store.add(cell)
        cell.absorb(1.0, decay)
        cell.delta = 0.7
        store.validate()
        assert store.raw_densities()[0] == cell.density
        assert store.deltas()[0] == 0.7

    def test_sync_mirrors_all_fields(self):
        store = CellStore()
        cell = make_cell((0.0,))
        store.add(cell)
        cell.density = 9.0
        cell.last_update = 4.0
        cell.delta = 1.25
        store.validate()
        assert store.raw_densities()[0] == 9.0
        assert store.last_updates()[0] == 4.0
        assert store.deltas()[0] == 1.25

    def test_jaccard_store_falls_back_to_metric_loop(self):
        store = CellStore(numeric=False, metric=jaccard_distance)
        a = make_cell(frozenset({"x", "y"}))
        b = make_cell(frozenset({"x", "z"}))
        store.add(a)
        store.add(b)
        distances = store.distances_to(frozenset({"x", "y"}))
        assert distances[0] == pytest.approx(0.0)
        assert distances[1] == pytest.approx(2.0 / 3.0)
        _, keys = store.nearest_many([frozenset({"x", "y"})])
        assert keys[0] == a.cell_id


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=-50, max_value=50),
            ),
            min_size=1,
            max_size=30,
            unique=True,
        ),
        st.tuples(
            st.floats(min_value=-50, max_value=50),
            st.floats(min_value=-50, max_value=50),
        ),
    )
    def test_nearest_matches_brute_force(self, seeds, query):
        store = CellStore()
        cells = [make_cell(seed) for seed in seeds]
        for cell in cells:
            store.add(cell)
        distances, _ = store.nearest_many([query])
        brute = min(cells, key=lambda c: math.dist(c.seed, query))
        assert distances[0] == pytest.approx(math.dist(brute.seed, query))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60))
    def test_random_add_remove_keeps_cache_coherent(self, operations):
        store = CellStore()
        alive = []
        for op in operations:
            if op < 7 or not alive:
                cell = make_cell((float(op), float(len(alive))))
                store.add(cell)
                alive.append(cell)
            else:
                victim = alive.pop(op % len(alive))
                store.remove(victim.cell_id)
        assert len(store) == len(alive)
        store.validate()
