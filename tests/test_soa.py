"""Tests for the structure-of-arrays cell arena (free-list edge cases).

Covers the contract documented in ``docs/ARCHITECTURE.md``: slot recycling
after outlier deletion, capacity-growth boundaries, and the float32 seed
mode's tolerance envelope against the exact float64 arena.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.cellstore import CellStore
from repro.core.edmstream import EDMStream
from repro.core.persistence import load_model, save_model
from repro.core.soa import DETACHED, FREE, MEMBER, CellArrays
from repro.distance.metrics import pairwise_euclidean


def seeded_arena(count, capacity=8):
    """An arena with ``count`` live 2-d cells with ids 0..count-1."""
    arena = CellArrays(numeric=True, capacity=capacity)
    for i in range(count):
        arena.allocate(i, (float(i), float(-i)), key=1.0 + i)
    return arena


class TestFreeListReuse:
    def test_release_parks_slot_on_free_list(self):
        arena = seeded_arena(3)
        slot = arena.slot_of(1)
        arena.release(1)
        assert arena.n_free == 1
        assert arena.status[slot] == FREE
        assert arena.cell_ids[slot] == -1
        assert 1 not in arena

    def test_released_slot_is_reused_lifo(self):
        arena = seeded_arena(3)
        freed = [arena.slot_of(1), arena.slot_of(2)]
        arena.release(1)
        arena.release(2)
        # LIFO: the most recently freed slot is claimed first.
        assert arena.allocate(10, (10.0, 10.0)) == freed[1]
        assert arena.allocate(11, (11.0, 11.0)) == freed[0]
        assert arena.n_free == 0
        assert arena.high_water == 3  # no new slots were touched

    def test_reused_slot_carries_no_stale_state(self):
        arena = seeded_arena(1)
        arena.delta[arena.slot_of(0)] = 0.25
        arena.dep[arena.slot_of(0)] = 7
        arena.release(0)
        slot = arena.allocate(42, (9.0, 9.0))
        assert arena.dep[slot] == -1
        assert np.isinf(arena.delta[slot])
        assert arena.seed_of(slot) == (9.0, 9.0)
        np.testing.assert_allclose(arena.seeds[slot], [9.0, 9.0])

    def test_release_invalidates_live_views(self):
        arena = seeded_arena(2)
        view, kept = arena.view(0), arena.view(1)
        assert view.key == 1.0
        slot = arena.slot_of(0)
        arena.release(0)
        with pytest.raises(KeyError):
            _ = view.key
        # The slot goes to a new cell; the old view still refuses to read it.
        assert arena.allocate(7, (5.0, 5.0), key=9.0) == slot
        with pytest.raises(KeyError):
            _ = view.key
        assert arena.view(7).key == 9.0
        assert kept.key == 2.0

    def test_create_takes_fresh_ids_and_leaves_the_cell_detached(self):
        arena = CellArrays(numeric=True)
        first = arena.create((0.0, 0.0), key=2.0, created_at=1.0)
        second = arena.create((1.0, 1.0))
        assert second > first
        slot = arena.slot_of(first)
        assert arena.status[slot] == DETACHED
        assert (arena.key[slot], arena.created_at[slot]) == (2.0, 1.0)
        assert (arena.dep[slot], arena.points_absorbed[slot]) == (-1, 1)

    def test_outlier_deletion_recycles_slots_in_model(self):
        """End-to-end: reservoir pruning returns slots to the free-list."""
        model = EDMStream(radius=0.5, beta=0.0021, stream_rate=100.0, init_size=100)
        # Shrink the safe-deletion horizon so the short test stream is long
        # enough for idle outlier cells to be pruned.
        model.reservoir._deletion_interval = 0.5
        rng = np.random.default_rng(3)
        # A dense clump keeps some cells active; scattered one-off points
        # become outlier cells that decay and get pruned.
        for i in range(400):
            if i % 4:
                point = rng.normal(0.0, 0.1, size=2)
            else:
                point = rng.uniform(50.0, 200.0, size=2) * rng.choice([-1.0, 1.0], 2)
            model.learn_one(tuple(point))
        arena = model._cells
        assert arena.n_free > 0, "expected pruned outliers to free slots"
        # Every live population member must sit on a non-FREE slot.
        for store in (model._active, model._inactive):
            assert np.all(arena.status[store.slots()] == MEMBER)
        arena.validate()


class TestGrowthBoundaries:
    def test_growth_preserves_all_columns(self):
        arena = CellArrays(numeric=True, capacity=4)
        for i in range(4):
            arena.allocate(i, (float(i), 0.0), key=2.0 * i)
            arena.delta[arena.slot_of(i)] = 0.5 * i
        assert arena.capacity == 4
        arena.allocate(4, (4.0, 0.0))  # crosses the boundary
        assert arena.capacity == 8
        for i in range(4):
            slot = arena.slot_of(i)
            assert arena.key[slot] == 2.0 * i
            assert arena.delta[slot] == 0.5 * i
            np.testing.assert_allclose(arena.seeds[slot], [float(i), 0.0])
            np.testing.assert_allclose(arena.seed_norm2[slot], float(i) ** 2)
        # Slots beyond the high-water mark are pristine.
        assert np.all(arena.status[5:] == FREE)
        assert np.all(arena.dep[5:] == -1)

    def test_exact_boundary_allocation_does_not_grow(self):
        arena = CellArrays(numeric=True, capacity=4)
        for i in range(4):
            arena.allocate(i, (float(i), 0.0))
        assert arena.capacity == 4 and arena.high_water == 4

    def test_free_list_absorbs_churn_without_growth(self):
        arena = CellArrays(numeric=True, capacity=4)
        for i in range(4):
            arena.allocate(i, (float(i), 0.0))
        for round_id in range(25):
            victim = round_id % 4
            arena.release(victim)
            arena.allocate(100 + round_id, (1.0, 1.0))
            arena.release(100 + round_id)
            arena.allocate(victim, (2.0, 2.0))
        assert arena.capacity == 4, "steady-state churn must not grow the arena"
        arena.validate()

    def test_store_growth_keeps_positions_coherent(self):
        store = CellStore()
        ids = [store.arrays.create((float(i), float(i))) for i in range(130)]
        for cell_id in ids:
            store.add(cell_id)
        for cell_id in ids[::3]:
            store.remove(cell_id)
        store.validate()
        remaining = [cell_id for i, cell_id in enumerate(ids) if i % 3]
        assert sorted(store.ids()) == remaining


def arena_state(arena, first_id):
    """Every column, the free-list and the ids (counted from ``first_id``)."""
    top = arena.high_water
    columns = {
        name: getattr(arena, name)[:top].tolist()
        for name in ("seed_norm2", "key", "created_at", "last_absorb",
                     "delta", "dep", "points_absorbed", "status")
    }
    live = arena.cell_ids[:top]
    columns["cell_ids"] = np.where(live >= 0, live - first_id, live).tolist()
    columns["seeds"] = arena.seeds[:top].tolist()
    columns["seed_objects"] = [
        arena.seed_of(slot) if arena.status[slot] != FREE else None for slot in range(top)
    ]
    columns["kept_objects"] = None if arena._seed_obj is None else sorted(arena._seed_obj)
    return columns, list(arena._free), arena.capacity


class TestCreateMany:
    """``create_many`` leaves the arena exactly as one ``create`` per seed."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("released, count", [(0, 3), (0, 9), (2, 2), (3, 7), (5, 30)])
    def test_matches_one_create_per_seed(self, dtype, released, count):
        """Rows, tuples and one ``create`` per seed leave identical arenas."""
        rng = np.random.default_rng(count + released)
        seeds = rng.normal(size=(count, 3))
        seeds[0, 0] = -0.0
        times = np.linspace(1.0, 2.0, count)
        key = rng.random(count)
        states = []
        for given in ("one", "rows", "tuples"):
            arena = CellArrays(numeric=True, dtype=dtype, capacity=4)
            old = [arena.create((float(i), 0.0, 1.0)) for i in range(6)]
            for cell_id in old[1 : 1 + released]:  # slots to reuse, LIFO
                arena.release(cell_id)
            first = old[-1] + 1
            if given != "one":
                ids = arena.create_many(
                    seeds if given == "rows" else list(map(tuple, seeds.tolist())),
                    key=key, created_at=times, last_absorb=times,
                ).tolist()
            else:
                ids = [
                    arena.create(tuple(row), key=k, created_at=t, last_absorb=t)
                    for row, k, t in zip(seeds.tolist(), key.tolist(), times.tolist())
                ]
            assert ids == list(range(first, first + count))
            arena.validate()
            states.append((arena_state(arena, old[0]), [arena.slot_of(i) for i in ids]))
        assert states[0] == states[1] == states[2]

    def test_seeds_given_as_objects_or_rows_are_the_same(self):
        rows = np.asarray([[0.1, 0.2], [0.3, 0.4]])
        by_rows, by_objects = CellArrays(), CellArrays()
        a = by_rows.create_many(rows)
        b = by_objects.create_many([(0.1, 0.2), (0.3, 0.4)])
        assert arena_state(by_rows, a[0]) == arena_state(by_objects, b[0])
        assert by_rows.seed_of(by_rows.slot_of(int(a[1]))) == (0.3, 0.4)

    def test_wrong_dimension_changes_nothing(self):
        arena = seeded_arena(3)
        before = arena_state(arena, 0)
        with pytest.raises(ValueError, match="seed dimension 3 does not match"):
            arena.create_many([(1.0, 2.0), (1.0, 2.0, 3.0)])
        assert arena_state(arena, 0) == before
        assert arena.create_many([]).tolist() == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(2, 3), (2, 1), (4,), (2, 2, 2)])
    def test_wrong_shape_array_changes_nothing(self, dtype, shape):
        arena = CellArrays(numeric=True, dtype=dtype, capacity=4)
        for i in range(3):
            arena.allocate(i, (float(i), float(-i)))
        before = arena_state(arena, 0), len(arena), arena.dim
        with pytest.raises(ValueError, match="seed"):
            arena.create_many(np.ones(shape))
        assert (arena_state(arena, 0), len(arena), arena.dim) == before
        arena.validate()

    def test_add_many_matches_one_add_per_id(self):
        stores = []
        for bulk in (False, True):
            store = CellStore(arrays=CellArrays(capacity=4))
            ids = store.arrays.create_many(np.arange(200.0).reshape(100, 2)).tolist()

            def add(run):
                if bulk:
                    store.add_many(run)
                else:
                    for cell_id in run:
                        store.add(cell_id)

            add(ids[:3])
            store.remove(ids[1])
            add(ids[3:])
            store.validate()
            stores.append(([i - ids[0] for i in store.ids()], store.slots().tolist(), store.version))
        assert stores[0] == stores[1]

    def test_add_many_refuses_members_and_repeats_before_any_change(self):
        store = CellStore()
        ids = store.arrays.create_many(np.zeros((3, 2))).tolist()
        store.add(ids[0])
        for bad in ([ids[1], ids[0]], [ids[1], ids[1]]):
            with pytest.raises(KeyError, match="already in a population"):
                store.add_many(bad)
            assert store.ids() == [ids[0]] and ids[1] not in store
        with pytest.raises(KeyError):
            store.add_many([10**12])
        store.validate()


def exact_norm2(row):
    """The squared norm of a float64 row as an exact rational."""
    return sum(Fraction(v) ** 2 for v in row)


class TestSeedStorage:
    """A float64 seed is its arena row; float32 and token-set arenas keep objects."""

    EDGE_SEEDS = [
        (-0.0, 0.0),
        (5e-324, -2.5e-310),
        (1e300, -1e300),
        (3, -7),
        (0.1, 1.0 / 3.0),
    ]

    def test_float64_arena_keeps_no_seed_objects_and_returns_the_input(self):
        arena = CellArrays(numeric=True)
        ids = [arena.create(seed) for seed in self.EDGE_SEEDS]
        assert arena._seed_obj is None
        for seed, cell_id in zip(self.EDGE_SEEDS, ids):
            expected = [float(v).hex() for v in seed]
            for got in (arena.seed_of(arena.slot_of(cell_id)), arena.view(cell_id).seed):
                assert type(got) is tuple and all(type(v) is float for v in got)
                assert [v.hex() for v in got] == expected
        bulk = arena.create_many(np.asarray(self.EDGE_SEEDS, dtype=np.float64))
        for seed, cell_id in zip(self.EDGE_SEEDS, bulk.tolist()):
            got = arena.view(cell_id).seed
            assert [v.hex() for v in got] == [float(v).hex() for v in seed]

    @pytest.mark.parametrize("given", ["one", "rows"])
    def test_float32_arena_returns_the_original_float64_tuple(self, given):
        seed = (0.1, 1.0 / 3.0)
        arena = CellArrays(numeric=True, dtype=np.float32)
        if given == "one":
            cell_id = arena.create(seed)
        else:
            (cell_id,) = arena.create_many(np.asarray([seed])).tolist()
        slot = arena.slot_of(cell_id)
        assert arena.seed_of(slot) == seed == arena.view(cell_id).seed
        assert tuple(arena.seeds[slot].tolist()) != seed  # the row is the rounded cast
        arena.release(cell_id)
        assert arena._seed_obj == {}

    def test_token_set_arena_keeps_its_objects(self):
        arena = CellArrays(numeric=False)
        seeds = [frozenset({"a", "b"}), frozenset({"c"})]
        ids = arena.create_many(seeds).tolist()
        assert arena.seeds is None
        for seed, cell_id in zip(seeds, ids):
            assert arena.view(cell_id).seed is seed
        arena.release(ids[0])
        assert list(arena._seed_obj.values()) == [seeds[1]]

    def test_save_load_keeps_float64_seeds_bit_equal(self, tmp_path):
        rows = [(-0.0, 5e-324), (0.1, 1.0 / 3.0), (1.0, -2.5e-310), (7.0, 1e10)]
        model = EDMStream(radius=0.05, init_size=3, stream_rate=1000.0)
        for row in rows:
            model.learn_one(row)
        path = save_model(model, tmp_path / "model.json")
        restored = load_model(path)

        def seeds(m):
            return sorted(
                tuple(v.hex() for v in m._cells.view(cell_id).seed) for cell_id in m._cells.ids()
            )

        assert seeds(restored) == seeds(model)
        assert sorted(tuple(float(v).hex() for v in row) for row in rows) == seeds(model)
        assert restored._cells._seed_obj is None

    @pytest.mark.parametrize("dim", [1, 2, 34, 300])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_seed_norm2_is_within_the_gram_slack_bound(self, dim, dtype):
        """``seed_norm2`` is one vectorised sum: at most 4(d+3)·2⁻⁵³·‖s‖² off exact."""
        rng = np.random.default_rng(dim)
        scale = 10.0 ** rng.uniform(-150, 150, size=(64, 1))
        if dtype == np.float32:
            scale = 10.0 ** rng.uniform(-15, 15, size=(64, 1))
        seeds = rng.normal(size=(64, dim)) * scale
        arena = CellArrays(numeric=True, dtype=dtype)
        ids = arena.create_many(seeds).tolist()
        bound = Fraction(4 * (dim + 3), 2**53)
        for cell_id in ids:
            slot = arena.slot_of(cell_id)
            exact = exact_norm2(arena.seeds[slot].astype(np.float64).tolist())
            assert abs(Fraction(float(arena.seed_norm2[slot])) - exact) <= bound * exact


class TestFloat32Mode:
    def test_config_rejects_unknown_dtype(self):
        with pytest.raises(ValueError):
            EDMStream(radius=0.3, dtype="float16")

    def test_float32_arena_stores_single_precision(self):
        model = EDMStream(radius=0.3, dtype="float32", init_size=10)
        rng = np.random.default_rng(2)
        for _ in range(40):
            model.learn_one(tuple(rng.normal(0.0, 0.1, size=2)))
        assert model._cells.seeds.dtype == np.float32
        snapshot = model.request_clustering()
        assert snapshot.seeds is not None and snapshot.seeds.dtype == np.float32

    def test_float32_kernel_stays_single_precision(self):
        rng = np.random.default_rng(11)
        queries = rng.normal(size=(8, 5)).astype(np.float32)
        seeds = rng.normal(size=(16, 5)).astype(np.float32)
        out = pairwise_euclidean(queries, seeds)
        assert out.dtype == np.float32
        exact = pairwise_euclidean(
            queries.astype(np.float64), seeds.astype(np.float64)
        )
        np.testing.assert_allclose(out, exact, rtol=1e-5, atol=1e-6)

    def test_float32_clustering_matches_float64_on_separated_data(self):
        """Reduced precision may move distances ~1e-7 relative, which cannot
        flip decisions when clusters are well separated."""
        rng = np.random.default_rng(5)
        centers = np.asarray([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
        points = [
            tuple(centers[i % 3] + rng.normal(0.0, 0.2, size=2)) for i in range(600)
        ]
        exact = EDMStream(radius=0.5, beta=0.0021, stream_rate=1000.0)
        single = EDMStream(radius=0.5, beta=0.0021, stream_rate=1000.0, dtype="float32")
        for point in points:
            exact.learn_one(point)
            single.learn_one(point)
        assert single.n_clusters == exact.n_clusters
        assert single.n_active_cells == exact.n_active_cells
        # Cell ids are drawn from a global counter, so match cells by seed.
        def by_seed(model):
            return {
                tuple(np.round(np.asarray(cell.seed, dtype=np.float64), 4)): cell
                for cell in model.tree.cells()
            }

        exact_cells = by_seed(exact)
        single_cells = by_seed(single)
        assert set(exact_cells) == set(single_cells)
        for key, e in exact_cells.items():
            s = single_cells[key]
            assert s.density_at(single.now) == pytest.approx(e.density_at(exact.now), rel=1e-4)
            if np.isfinite(e.delta):
                assert s.delta == pytest.approx(e.delta, rel=1e-4, abs=1e-5)

    def test_float32_batch_matches_float32_sequential(self):
        """Batch≡sequential equivalence holds inside the float32 mode too."""
        rng = np.random.default_rng(9)
        points = [tuple(rng.normal(0.0, 1.0, size=3)) for _ in range(300)]
        sequential = EDMStream(radius=0.8, stream_rate=500.0, dtype="float32")
        batched = EDMStream(radius=0.8, stream_rate=500.0, dtype="float32")
        for point in points:
            sequential.learn_one(point)
        batched.learn_many(points, batch_size=64)
        assert batched.n_clusters == sequential.n_clusters
        assert sorted(batched.tree.ids()) == sorted(sequential.tree.ids())
