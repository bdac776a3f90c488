"""Tests for the vectorised cell store cache."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cellstore import CellStore
from repro.core.decay import DecayModel
from repro.core.soa import CellArrays
from repro.distance import jaccard_distance


def add_cell(store, seed, **fields):
    """Create a cell in the store's arena and add it; returns the id."""
    cell_id = store.arrays.create(seed, **fields)
    store.add(cell_id)
    return cell_id


class TestMembership:
    def test_add_and_lookup(self):
        store = CellStore()
        cell_id = add_cell(store, (1.0, 2.0))
        assert len(store) == 1
        assert cell_id in store
        assert store.get(cell_id).seed == (1.0, 2.0)
        assert store.ids() == [cell_id]

    def test_duplicate_add_rejected(self):
        store = CellStore()
        cell_id = add_cell(store, (1.0, 2.0))
        with pytest.raises(KeyError):
            store.add(cell_id)

    def test_add_requires_an_allocated_id(self):
        with pytest.raises(KeyError):
            CellStore().add(424242)

    def test_cell_belongs_to_one_population(self):
        arena = CellArrays()
        first, second = CellStore(arrays=arena), CellStore(arrays=arena)
        cell_id = add_cell(first, (1.0, 2.0))
        with pytest.raises(KeyError):
            second.add(cell_id)
        second.add(first.remove(cell_id))
        assert cell_id in second and cell_id not in first

    def test_dimension_mismatch_rejected(self):
        store = CellStore()
        add_cell(store, (1.0, 2.0))
        with pytest.raises(ValueError):
            store.arrays.create((1.0, 2.0, 3.0))

    def test_remove_swaps_last_into_place(self):
        store = CellStore()
        ids = [add_cell(store, (float(i), 0.0)) for i in range(5)]
        assert store.remove(ids[1]) == ids[1]
        assert len(store) == 4
        assert ids[1] not in store
        assert store.ids() == [ids[0], ids[4], ids[2], ids[3]]
        store.validate()

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            CellStore().remove(77)

    def test_growth_beyond_initial_capacity(self):
        store = CellStore()
        for i in range(200):
            add_cell(store, (float(i),))
        assert len(store) == 200
        store.validate()

    def test_non_numeric_store_requires_metric(self):
        with pytest.raises(ValueError):
            CellStore(numeric=False)


class TestQueries:
    def test_distances_to(self):
        store = CellStore()
        add_cell(store, (0.0, 0.0))
        add_cell(store, (3.0, 4.0))
        distances = store.distances_to((0.0, 0.0))
        assert distances == pytest.approx([0.0, 5.0])

    def test_distances_to_subset(self):
        store = CellStore()
        for i in range(4):
            add_cell(store, (float(i), 0.0))
        subset = store.distances_to_subset((0.0, 0.0), np.asarray([1, 3]))
        assert subset == pytest.approx([1.0, 3.0])

    def test_densities_at_decays_the_keys(self):
        arena = CellArrays(log_rate=DecayModel(a=0.5, lam=1.0).log_rate)
        store = CellStore(arrays=arena)
        add_cell(store, (0.0,), key=math.log(8.0))
        densities = store.densities_at(2.0)
        assert densities == pytest.approx([2.0])

    def test_densities_at_does_not_undecay_on_clock_skew(self):
        arena = CellArrays(log_rate=DecayModel(a=0.5, lam=1.0).log_rate)
        store = CellStore(arrays=arena)
        add_cell(store, (0.0,), key=math.log(4.0) + arena.arrival_key(10.0), last_absorb=10.0)
        assert store.densities_at(5.0) == pytest.approx([4.0])

    def test_queries_read_the_live_columns(self):
        store = CellStore(arrays=CellArrays(log_rate=DecayModel(a=0.5, lam=1.0).log_rate))
        slot = store.arrays.slot_of(add_cell(store, (0.0,)))
        store.arrays.key[slot] = math.log(9.0) + store.arrays.arrival_key(4.0)
        store.arrays.delta[slot] = 1.25
        store.validate()
        assert store.keys()[0] == store.arrays.key[slot]
        assert store.densities_at(4.0)[0] == pytest.approx(9.0)
        assert store.densities_at(6.0)[0] == pytest.approx(2.25)
        assert store.deltas()[0] == 1.25

    def test_jaccard_store_falls_back_to_metric_loop(self):
        store = CellStore(numeric=False, metric=jaccard_distance)
        a = add_cell(store, frozenset({"x", "y"}))
        add_cell(store, frozenset({"x", "z"}))
        distances = store.distances_to(frozenset({"x", "y"}))
        assert distances[0] == pytest.approx(0.0)
        assert distances[1] == pytest.approx(2.0 / 3.0)
        _, keys = store.nearest_many([frozenset({"x", "y"})])
        assert keys[0] == a


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
        for seed in seeds:
            add_cell(store, seed)
        distances, _ = store.nearest_many([query])
        brute = min(math.dist(seed, query) for seed in seeds)
        assert distances[0] == pytest.approx(brute)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60))
    def test_random_add_remove_keeps_cache_coherent(self, operations):
        store = CellStore()
        alive = []
        for op in operations:
            if op < 7 or not alive:
                alive.append(add_cell(store, (float(op), float(len(alive)))))
            else:
                store.remove(alive.pop(op % len(alive)))
        assert len(store) == len(alive)
        store.validate()
