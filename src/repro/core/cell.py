"""The cluster-cell summary structure (Definition 4).

A cluster-cell summarises a group of close points by a seed point, a timely
density ρ (sum of the member points' freshness) and a dependent distance δ
(distance from the seed to the nearest seed of a higher-density cell).  The
density is stored as a time-invariant key κ (see
:class:`~repro.core.soa.CellArrays`): decay moves every density by the same
factor, so κ changes only when the cell absorbs, and :meth:`ClusterCell.density_at`
turns it into the density at a given time.

A cell *is* its row in the model's :class:`~repro.core.soa.CellArrays`
arena: :meth:`CellArrays.create <repro.core.soa.CellArrays.create>` makes
one and returns its id, and the engines update the columns directly.
:class:`ClusterCell` is a read-only view of one cell id for code that wants
attribute access — inspection, serialisation, tests.  It resolves the id's
slot on every read, so a view of a released cell raises ``KeyError``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.soa import CellArrays


class ClusterCell:
    """A read-only view of one cluster-cell: seed + timely density + dependency.

    Parameters
    ----------
    arrays:
        The arena that holds the cell.
    cell_id:
        The cell's id.  Every attribute read looks its slot up anew, so the
        view never reads a slot that has since been released or reused.
    """

    __slots__ = ("_arrays", "_cell_id")

    def __init__(self, arrays: "CellArrays", cell_id: int) -> None:
        self._arrays = arrays
        self._cell_id = cell_id

    @property
    def _slot(self) -> int:
        return self._arrays.slot_of(self._cell_id)

    @property
    def cell_id(self) -> int:
        """Unique id of this cell (process-global, never reused)."""
        return self._cell_id

    @property
    def seed(self) -> Any:
        """The (immutable) seed point this cell was created from."""
        return self._arrays.seed_of(self._slot)

    @property
    def key(self) -> float:
        """Density key κ = ln ρ − ℓ·(t − t₀), the same at every time ``t``."""
        return float(self._arrays.key[self._slot])

    @property
    def created_at(self) -> float:
        """Time the cell was created (= arrival time of its seed point)."""
        return float(self._arrays.created_at[self._slot])

    @property
    def last_absorb(self) -> float:
        """Time the cell last absorbed a point (outdated-cell deletion)."""
        return float(self._arrays.last_absorb[self._slot])

    @property
    def dependency(self) -> Optional[int]:
        """Cell id of the nearest higher-density cell (``None`` for a root)."""
        dep = self._arrays.dep[self._slot]
        return None if dep < 0 else int(dep)

    @property
    def delta(self) -> float:
        """Dependent distance δ to the dependency (``inf`` for a root)."""
        return float(self._arrays.delta[self._slot])

    @property
    def points_absorbed(self) -> int:
        """Total number of points ever absorbed (bookkeeping only)."""
        return int(self._arrays.points_absorbed[self._slot])

    def density_at(self, now: float) -> float:
        """Timely density ρ at time ``now``, from the key."""
        return self._arrays.density_at(self._slot, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dep = self.dependency if self.dependency is not None else "root"
        return (
            f"ClusterCell(id={self.cell_id}, key={self.key:.3f}, "
            f"delta={self.delta:.3f}, dep={dep})"
        )
