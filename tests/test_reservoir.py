"""Tests for the outlier reservoir (Sections 4.1, 4.3, 4.4, Theorem 3)."""

import pytest

from repro.core.cell import ClusterCell
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


class TestMembership:
    def test_add_and_get(self, reservoir):
        cell = ClusterCell(seed=(0.0,), density=3.0)
        reservoir.add(cell)
        assert cell.cell_id in reservoir
        assert len(reservoir) == 1
        assert reservoir.get(cell.cell_id) is cell

    def test_add_clears_dependency_information(self, reservoir):
        cell = ClusterCell(seed=(0.0,), density=3.0, dependency=42, delta=1.0)
        reservoir.add(cell)
        assert cell.dependency is None
        assert cell.delta == float("inf")

    def test_duplicate_add_rejected(self, reservoir):
        cell = ClusterCell(seed=(0.0,))
        reservoir.add(cell)
        with pytest.raises(KeyError):
            reservoir.add(cell)

    def test_remove(self, reservoir):
        cell = ClusterCell(seed=(0.0,))
        reservoir.add(cell)
        removed = reservoir.remove(cell.cell_id)
        assert removed is cell
        assert len(reservoir) == 0

    def test_remove_unknown_raises(self, reservoir):
        with pytest.raises(KeyError):
            reservoir.remove(9999)

    def test_iteration(self, reservoir):
        cells = [ClusterCell(seed=(float(i),)) for i in range(3)]
        for cell in cells:
            reservoir.add(cell)
        assert [c.cell_id for c in reservoir.cells()] == [c.cell_id for c in cells]


class TestPruning:
    def test_prune_outdated_removes_idle_cells(self):
        reservoir = OutlierReservoir(
            decay=DecayModel(), beta=0.0021, stream_rate=1000.0, deletion_interval=10.0
        )
        stale = ClusterCell(seed=(0.0,), last_absorb=0.0)
        fresh = ClusterCell(seed=(1.0,), last_absorb=95.0)
        reservoir.add(stale)
        reservoir.add(fresh)
        stale_id = stale.cell_id
        removed = reservoir.prune_outdated(now=100.0)
        assert removed == [stale_id]
        assert fresh.cell_id in reservoir
        assert reservoir.total_deleted == 1
        # The outdated cell is gone for good: its arena slot is recycled.
        assert stale_id not in reservoir.arrays
        assert reservoir.arrays.n_free == 1
        reservoir.validate()

    def test_idle_exactly_the_interval_is_kept(self):
        reservoir = OutlierReservoir(
            decay=DecayModel(), beta=0.0021, stream_rate=1000.0, deletion_interval=10.0
        )
        reservoir.add(ClusterCell(seed=(0.0,), last_absorb=90.0))
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
        reservoir.add(ClusterCell(seed=(0.0,), last_absorb=0.0))
        assert reservoir.prune_outdated(now=100.0) == []
        assert len(reservoir) == 1
