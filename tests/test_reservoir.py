"""Tests for the outlier reservoir (Sections 4.1, 4.3, 4.4, Theorem 3)."""

import pytest

from repro.core.decay import DecayModel
from repro.core.reservoir import OutlierReservoir


@pytest.fixture
def reservoir() -> OutlierReservoir:
    return OutlierReservoir(
        decay=DecayModel(a=0.998, lam=1.0), beta=0.0021, stream_rate=1000.0
    )


class TestThresholds:
    def test_active_threshold_matches_paper(self, reservoir):
        assert reservoir.active_threshold == pytest.approx(1050.0)

    def test_deletion_interval_positive(self, reservoir):
        assert reservoir.deletion_interval > 0

    def test_deletion_interval_override(self):
        reservoir = OutlierReservoir(
            decay=DecayModel(), beta=0.0021, stream_rate=1000.0, deletion_interval=5.0
        )
        assert reservoir.deletion_interval == 5.0

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            OutlierReservoir(
                decay=DecayModel(), beta=0.0021, stream_rate=1000.0, deletion_interval=0.0
            )

    def test_size_upper_bound_formula(self, reservoir):
        expected = reservoir.deletion_interval * 1000.0 + 1.0 / 0.0021
        assert reservoir.size_upper_bound == pytest.approx(expected)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            OutlierReservoir(decay=DecayModel(), beta=1.5, stream_rate=1000.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            OutlierReservoir(decay=DecayModel(), beta=0.5, stream_rate=0.0)


def add_cell(reservoir, seed, **fields):
    """Create a cell in the reservoir's arena and add it; returns the id."""
    cell_id = reservoir.arrays.create(seed, **fields)
    reservoir.add(cell_id)
    return cell_id


class TestMembership:
    def test_add_and_get(self, reservoir):
        cell_id = add_cell(reservoir, (0.0,), key=3.0)
        assert cell_id in reservoir
        assert len(reservoir) == 1
        assert reservoir.get(cell_id).key == 3.0

    def test_add_clears_dependency_information(self, reservoir):
        arena = reservoir.arrays
        cell_id = arena.create((0.0,), key=3.0)
        arena.dep[arena.slot_of(cell_id)] = 42
        arena.delta[arena.slot_of(cell_id)] = 1.0
        reservoir.add(cell_id)
        cell = reservoir.get(cell_id)
        assert cell.dependency is None
        assert cell.delta == float("inf")

    def test_duplicate_add_rejected(self, reservoir):
        cell_id = add_cell(reservoir, (0.0,))
        with pytest.raises(KeyError):
            reservoir.add(cell_id)

    def test_remove(self, reservoir):
        cell_id = add_cell(reservoir, (0.0,))
        assert reservoir.remove(cell_id) == cell_id
        assert len(reservoir) == 0
        assert cell_id in reservoir.arrays  # the slot is not released

    def test_remove_unknown_raises(self, reservoir):
        with pytest.raises(KeyError):
            reservoir.remove(9999)

    def test_iteration(self, reservoir):
        ids = [add_cell(reservoir, (float(i),)) for i in range(3)]
        assert [c.cell_id for c in reservoir.cells()] == ids


class TestPruning:
    def test_prune_outdated_removes_idle_cells(self):
        reservoir = OutlierReservoir(
            decay=DecayModel(), beta=0.0021, stream_rate=1000.0, deletion_interval=10.0
        )
        stale_id = add_cell(reservoir, (0.0,), last_absorb=0.0)
        fresh_id = add_cell(reservoir, (1.0,), last_absorb=95.0)
        removed = reservoir.prune_outdated(now=100.0)
        assert removed == [stale_id]
        assert fresh_id in reservoir
        assert reservoir.total_deleted == 1
        # The outdated cell is gone for good: its arena slot is recycled.
        assert stale_id not in reservoir.arrays
        assert reservoir.arrays.n_free == 1
        reservoir.validate()

    def test_idle_exactly_the_interval_is_kept(self):
        reservoir = OutlierReservoir(
            decay=DecayModel(), beta=0.0021, stream_rate=1000.0, deletion_interval=10.0
        )
        add_cell(reservoir, (0.0,), last_absorb=90.0)
        assert reservoir.prune_outdated(now=100.0) == []
        assert len(reservoir) == 1

    def test_prune_disabled(self):
        reservoir = OutlierReservoir(
            decay=DecayModel(),
            beta=0.0021,
            stream_rate=1000.0,
            delete_outdated=False,
            deletion_interval=1.0,
        )
        add_cell(reservoir, (0.0,), last_absorb=0.0)
        assert reservoir.prune_outdated(now=100.0) == []
        assert len(reservoir) == 1
