"""Tests for the nearest-seed query behind cell assignment.

EDMStream assigns a point to its nearest seed within the cell radius r.
``CellStore.nearest_many`` (one population) and ``nearest_over_slots`` (any
slot selection of the shared arena, e.g. the union of the active and
inactive populations) are the one implementation of that query.  The tests
check it against exhaustive scans: exact ties go to the smallest cell id,
removed cells are never returned, and ``within`` keeps every result that
lies within r exact.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cellstore import CellStore, nearest_over_slots
from repro.core.soa import CellArrays
from repro.distance import jaccard_distance
from repro.distance.metrics import manhattan


def make_cell(store, seed):
    """A view of a new cell in the store's arena, not yet added to the store."""
    return store.arrays.view(store.arrays.create(seed))


def store_of(seeds, dtype=np.float64):
    store = CellStore(arrays=CellArrays(numeric=True, dtype=dtype))
    cells = [make_cell(store, tuple(float(v) for v in seed)) for seed in seeds]
    for cell in cells:
        store.add(cell.cell_id)
    return store, cells


def brute_nearest(cells, query, metric=math.dist):
    """Reference (distance, id): exhaustive scan, smallest id on exact ties."""
    return min((metric(cell.seed, query), cell.cell_id) for cell in cells)


def nearest_one(store, query, within=None):
    distances, ids = store.nearest_many([query], within=within)
    if distances is None:
        return None
    return float(distances[0]), int(ids[0])


class TestSingleQueries:
    def test_returns_the_nearest_id_and_distance(self):
        store, (a, b) = store_of([(0.0, 0.0), (5.0, 0.0)])
        assert nearest_one(store, (1.0, 0.0)) == (pytest.approx(1.0), a.cell_id)
        assert nearest_one(store, (4.4, 0.0))[1] == b.cell_id

    def test_empty_store_returns_none(self):
        assert CellStore().nearest_many([(0.0, 0.0)]) == (None, None)

    def test_no_queries_return_none(self):
        store, _ = store_of([(0.0, 0.0)])
        assert store.nearest_many([]) == (None, None)

    def test_query_on_a_seed_is_at_distance_zero(self):
        store, cells = store_of([(1.0, 2.0), (3.0, 4.0)])
        assert nearest_one(store, (3.0, 4.0)) == (0.0, cells[1].cell_id)

    def test_exact_tie_resolves_to_the_smallest_id(self):
        store = CellStore()
        first, second = make_cell(store, (-1.0, 0.0)), make_cell(store, (1.0, 0.0))
        store.add(second.cell_id)  # array order opposite to id order
        store.add(first.cell_id)
        assert first.cell_id < second.cell_id
        assert nearest_one(store, (0.0, 0.0)) == (1.0, first.cell_id)

    def test_duplicate_seeds_resolve_to_the_smallest_id(self):
        store, cells = store_of([(2.0, 2.0), (0.0, 0.0), (2.0, 2.0)])
        assert nearest_one(store, (2.1, 2.0))[1] == cells[0].cell_id
        store.remove(cells[0].cell_id)
        assert nearest_one(store, (2.1, 2.0))[1] == cells[2].cell_id

    def test_high_dimensional_seeds(self):
        store, (a, _) = store_of([[0.0] * 10, [5.0] * 10])
        distance, cell_id = nearest_one(store, tuple([0.1] * 10))
        assert cell_id == a.cell_id
        assert distance == pytest.approx(math.sqrt(10 * 0.01))


class TestRemoval:
    def test_removed_seed_is_not_returned(self):
        store, (a, b) = store_of([(0.0, 0.0), (1.0, 0.0)])
        store.remove(a.cell_id)
        assert nearest_one(store, (0.0, 0.0)) == (1.0, b.cell_id)

    def test_removing_everything_empties_the_store(self):
        store, cells = store_of([(float(i), 0.0) for i in range(10)])
        for cell in cells:
            store.remove(cell.cell_id)
        assert len(store) == 0
        assert store.nearest_many([(0.0, 0.0)]) == (None, None)

    def test_readding_a_removed_cell(self):
        store, (a, b) = store_of([(0.0, 0.0), (4.0, 4.0)])
        store.remove(a.cell_id)
        assert nearest_one(store, (0.0, 0.0))[1] == b.cell_id
        store.add(a.cell_id)
        assert nearest_one(store, (0.0, 0.0)) == (0.0, a.cell_id)

    def test_heavy_deletion_keeps_answers_exact(self):
        store, cells = store_of([(float(i), float(i % 5)) for i in range(40)])
        for cell in cells[::2]:
            store.remove(cell.cell_id)
        alive = cells[1::2]
        store.validate()
        for cell in cells:
            assert nearest_one(store, cell.seed) == brute_nearest(alive, cell.seed)


class TestWithin:
    @pytest.fixture(params=["exact", "pruned"])
    def threshold(self, request, monkeypatch):
        if request.param == "pruned":
            monkeypatch.setattr(CellStore, "prune_threshold", 0)
        return request.param

    def test_result_within_radius_is_the_exact_nearest(self, threshold):
        rng = np.random.default_rng(3)
        store, cells = store_of(rng.uniform(-5, 5, size=(80, 3)))
        queries = rng.uniform(-5, 5, size=(60, 3))
        distances, ids = store.nearest_many(queries, within=0.8)
        hits = 0
        for query, distance, cell_id in zip(queries, distances, ids):
            expected = brute_nearest(cells, tuple(query))
            if expected[0] <= 0.8:
                assert (float(distance), int(cell_id)) == (pytest.approx(expected[0]), expected[1])
                hits += 1
        assert hits > 0

    def test_no_seed_within_radius_reports_a_distance_beyond_it(self, threshold):
        rng = np.random.default_rng(4)
        store, cells = store_of(rng.uniform(-5, 5, size=(80, 3)))
        queries = rng.uniform(-5, 5, size=(60, 3))
        distances, _ = store.nearest_many(queries, within=0.5)
        misses = 0
        for query, distance in zip(queries, distances):
            if brute_nearest(cells, tuple(query))[0] > 0.5:
                assert distance > 0.5
                misses += 1
        assert misses > 0


class TestNonEuclideanStores:
    def test_jaccard_store_answers_several_queries(self):
        store = CellStore(numeric=False, metric=jaccard_distance)
        tech = make_cell(store, frozenset({"google", "android"}))
        sport = make_cell(store, frozenset({"football", "goal"}))
        store.add(tech.cell_id)
        store.add(sport.cell_id)
        distances, ids = store.nearest_many(
            [frozenset({"google", "pixel"}), frozenset({"goal", "match"})]
        )
        assert ids.tolist() == [tech.cell_id, sport.cell_id]
        assert distances.tolist() == pytest.approx([2.0 / 3.0, 2.0 / 3.0])

    def test_custom_metric_is_used_instead_of_euclidean(self):
        store = CellStore(numeric=False, metric=manhattan)
        a, b = make_cell(store, (3.0, 0.0)), make_cell(store, (2.0, 2.0))
        store.add(a.cell_id)
        store.add(b.cell_id)
        # Euclidean would pick b (2.83 < 3); Manhattan picks a (3 < 4).
        assert nearest_one(store, (0.0, 0.0)) == (3.0, a.cell_id)


class TestBatchQueries:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("within", [None, 0.6])
    def test_batch_matches_per_query_calls(self, monkeypatch, dtype, within):
        monkeypatch.setattr(CellStore, "prune_threshold", 0)
        rng = np.random.default_rng(9)
        store, _ = store_of(rng.normal(size=(120, 3)), dtype=dtype)
        queries = rng.normal(size=(25, 3)).astype(dtype)
        distances, ids = store.nearest_many(queries, within=within)
        assert distances.shape == ids.shape == (25,)
        for query, distance, cell_id in zip(queries, distances, ids):
            single = nearest_one(store, query, within=within)
            if within is None or single[0] <= within:
                assert (float(distance), int(cell_id)) == single

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
            min_size=1,
            max_size=60,
            unique=True,
        ),
        st.lists(st.tuples(st.floats(-60, 60), st.floats(-60, 60)), min_size=1, max_size=20),
    )
    def test_batch_matches_row_minima_of_distances_to_many(self, seeds, queries):
        store, _ = store_of(seeds)
        distances, ids = store.nearest_many(queries)
        matrix = store.distances_to_many(queries)
        store_ids = store.ids_array()
        for row, distance, cell_id in zip(matrix, distances, ids):
            assert distance == row.min()
            assert cell_id == store_ids[row == row.min()].min()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_agreement_with_brute_force_under_churn(self, n, seed):
        rng = np.random.default_rng(seed)
        store, cells = store_of(rng.uniform(-10, 10, size=(n, 3)))
        removed = set(rng.choice(n, size=n // 2, replace=False).tolist())
        for i in removed:
            store.remove(cells[i].cell_id)
        alive = [cell for i, cell in enumerate(cells) if i not in removed]
        query = tuple(rng.uniform(-10, 10, size=3))
        distance, cell_id = nearest_one(store, query)
        expected = brute_nearest(alive, query)
        assert distance == pytest.approx(expected[0])
        assert math.dist(store.get(cell_id).seed, query) == pytest.approx(expected[0])


class TestUnionOfPopulations:
    """Micro-batch assignment scans the active and inactive cells at once."""

    @pytest.fixture
    def populations(self):
        arena = CellArrays(numeric=True)
        active, inactive = CellStore(arrays=arena), CellStore(arrays=arena)
        rng = np.random.default_rng(11)
        for i, row in enumerate(np.round(rng.uniform(-4, 4, size=(90, 2)) * 4) / 4):
            (active if i % 3 else inactive).add(arena.create(tuple(row.tolist())))
        return arena, active, inactive

    def test_union_scan_matches_the_better_of_both_stores(self, populations):
        arena, active, inactive = populations
        queries = np.round(np.random.default_rng(12).uniform(-4, 4, size=(50, 2)) * 4) / 4
        slots = np.concatenate([active.slots(), inactive.slots()])
        ids = np.concatenate([active.ids_array(), inactive.ids_array()])
        distances, best_ids = nearest_over_slots(arena, slots, ids, queries)
        on_active = active.nearest_many(queries)
        on_inactive = inactive.nearest_many(queries)
        for i in range(len(queries)):
            expected = min(
                (on_active[0][i], on_active[1][i]), (on_inactive[0][i], on_inactive[1][i])
            )
            assert (distances[i], best_ids[i]) == expected

    def test_given_seed_matrix_gives_the_same_answer_as_the_arena_gather(self, populations):
        arena, active, _ = populations
        queries = np.random.default_rng(13).uniform(-4, 4, size=(30, 2))
        gathered = nearest_over_slots(arena, active.slots(), active.ids_array(), queries)
        given_seeds = nearest_over_slots(
            arena, active.slots(), active.ids_array(), queries, seeds=active.seed_view()
        )
        assert np.array_equal(gathered[0], given_seeds[0])
        assert np.array_equal(gathered[1], given_seeds[1])
