"""Tests for the cluster-cell summary structure (Definition 4).

A cell is its row in the arena: ``CellArrays.create`` makes one and returns
its id, the engines update the columns, and ``ClusterCell`` is a read-only
view of the row.
"""

import math

import pytest

from repro.core.cell import ClusterCell
from repro.core.decay import DecayModel
from repro.core.edmstream import EDMStream
from repro.core.soa import CellArrays


@pytest.fixture
def arena() -> CellArrays:
    # a = 0.5, λ = 1: fast decay makes the arithmetic obvious.
    return CellArrays(numeric=True, log_rate=DecayModel(a=0.5, lam=1.0).log_rate)


class TestDensityMaintenance:
    def test_new_cell_has_unit_density(self, arena):
        cell = arena.view(arena.create((0.0, 0.0)))
        assert cell.key == 0.0
        assert cell.density_at(0.0) == 1.0
        assert cell.points_absorbed == 1

    def test_density_at_decays_the_key(self, arena):
        cell_id = arena.create((0.0, 0.0), key=math.log(8.0))
        slot = arena.slot_of(cell_id)
        assert arena.density_at(slot, 3.0) == pytest.approx(1.0)
        assert arena.view(cell_id).density_at(3.0) == pytest.approx(1.0)
        # The key itself does not change with time.
        assert arena.key[slot] == math.log(8.0)

    def test_keys_are_anchored_at_the_origin(self, arena):
        arena.origin = 10.0
        cell_id = arena.create((0.0,), key=arena.arrival_key(12.0))
        assert arena.arrival_key(10.0) == 0.0
        assert arena.density_at(arena.slot_of(cell_id), 12.0) == 1.0
        assert arena.density_at(arena.slot_of(cell_id), 13.0) == pytest.approx(0.5)

    def test_density_at_does_not_undecay_on_clock_skew(self, arena):
        cell_id = arena.create(
            (0.0,), key=math.log(4.0) + arena.arrival_key(10.0), last_absorb=10.0
        )
        assert arena.density_at(arena.slot_of(cell_id), 5.0) == pytest.approx(4.0)

    def test_absorb_follows_equation_8(self):
        model = EDMStream(radius=1.0, decay_a=0.5, decay_lambda=1.0, init_size=100)
        cell_id = model.learn_one((0.0,), timestamp=0.0)
        assert model.learn_one((0.0,), timestamp=1.0) == cell_id
        cell = model.reservoir.get(cell_id)
        assert cell.density_at(1.0) == pytest.approx(0.5 * 1.0 + 1.0)
        assert cell.last_absorb == 1.0
        assert cell.points_absorbed == 2


class TestView:
    def test_cell_ids_are_unique_across_arenas(self, arena):
        other = CellArrays(numeric=True)
        ids = [arena.create((0.0,)), other.create((0.0,)), arena.create((1.0,))]
        assert len(set(ids)) == 3

    def test_default_dependency_is_root_like(self, arena):
        cell = arena.view(arena.create((0.0,)))
        assert cell.dependency is None
        assert cell.delta == float("inf")

    def test_view_reads_the_columns(self, arena):
        cell_id = arena.create((1.0, 2.0), key=3.0, created_at=4.0, last_absorb=5.0)
        cell = ClusterCell(arena, cell_id)
        arena.dep[arena.slot_of(cell_id)] = 7
        arena.delta[arena.slot_of(cell_id)] = 0.25
        assert cell.cell_id == cell_id
        assert cell.seed == (1.0, 2.0)
        assert (cell.key, cell.created_at, cell.last_absorb) == (3.0, 4.0, 5.0)
        assert (cell.dependency, cell.delta) == (7, 0.25)

    def test_view_is_read_only(self, arena):
        cell = arena.view(arena.create((0.0,)))
        for name in ("key", "last_absorb", "dependency", "delta", "cell_id"):
            with pytest.raises(AttributeError):
                setattr(cell, name, 1.0)

    def test_view_of_released_cell_raises(self, arena):
        cell_id = arena.create((0.0,))
        cell = arena.view(cell_id)
        arena.release(cell_id)
        with pytest.raises(KeyError):
            _ = cell.key
