"""The cluster-cell summary structure (Definition 4).

A cluster-cell summarises a group of close points by a seed point, a timely
density ρ (sum of the member points' freshness) and a dependent distance δ
(distance from the seed to the nearest seed of a higher-density cell).  The
density is stored lazily: ``density`` is the value at ``last_update`` and is
decayed multiplicatively whenever it is read at a later time.

Since the structure-of-arrays refactor, :class:`ClusterCell` is a *thin
view*: all of its numeric state lives in the parallel columns of a
:class:`~repro.core.soa.CellArrays` arena, and the attributes below read and
write those columns in place.  Cells constructed standalone (tests,
deserialisation) are backed by the process-wide detached arena until a model
adopts them into its own; either way the object API — ``absorb``,
``density_at``, ``refresh``, plain attribute access — is unchanged.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.core.decay import DecayModel
from repro.core.soa import CellArrays, detached_arena

_cell_id_counter = itertools.count(1)


def _next_cell_id() -> int:
    return next(_cell_id_counter)


def ensure_cell_id_floor(minimum: int) -> None:
    """Advance the global cell-id counter so new ids start above ``minimum``.

    Used when restoring a persisted model (:mod:`repro.core.persistence`):
    cells created after the restore must not collide with the restored ids.
    """
    global _cell_id_counter
    current = next(_cell_id_counter)
    _cell_id_counter = itertools.count(max(current, minimum + 1))


class ClusterCell:
    """A cluster-cell: seed point + timely density + dependency information.

    Parameters
    ----------
    seed:
        The seed point.  A cell summarises the points whose nearest seed is
        this one and whose distance to it is at most the radius ``r``.  The
        seed never moves after creation.
    density:
        Timely density ρ at time ``last_update``.
    created_at:
        Time the cell was created (= arrival time of its seed point).
    last_update:
        Time at which ``density`` was last brought up to date.
    last_absorb:
        Time the cell last absorbed a point (used for outdated-cell deletion).
    dependency:
        Cell id of the nearest higher-density cell (``None`` for the absolute
        density peak, the root of the DP-Tree).
    delta:
        Dependent distance δ to the dependency (``inf`` for the root).
    points_absorbed:
        Total number of points ever absorbed (not decayed; bookkeeping only).
    cell_id:
        Unique id; auto-assigned from a process-global counter when omitted.
    label_votes:
        Optional ground-truth label histogram maintained by the evaluation
        harness; the clusterer itself never reads it.
    """

    __slots__ = ("_arrays", "_slot", "__weakref__")

    def __init__(
        self,
        seed: Any,
        density: float = 1.0,
        created_at: float = 0.0,
        last_update: float = 0.0,
        last_absorb: float = 0.0,
        dependency: Optional[int] = None,
        delta: float = float("inf"),
        points_absorbed: int = 1,
        cell_id: Optional[int] = None,
        label_votes: Optional[Dict[int, int]] = None,
        _arena: Optional[CellArrays] = None,
    ) -> None:
        arena = detached_arena() if _arena is None else _arena
        if cell_id is None:
            cell_id = _next_cell_id()
        self._arrays = arena
        self._slot = arena.allocate(
            cell_id,
            seed,
            density=density,
            created_at=created_at,
            last_update=last_update,
            last_absorb=last_absorb,
            dependency=dependency,
            delta=delta,
            points_absorbed=points_absorbed,
        )
        if label_votes:
            arena._label_votes[self._slot] = dict(label_votes)
        if _arena is not None:
            arena.register_view(cell_id, self)

    def __del__(self) -> None:
        # Standalone cells (detached arena, never registered) recycle their
        # slot when garbage-collected; model-owned cells are released
        # explicitly by the model.
        try:
            arrays = self._arrays
            if arrays is detached_arena() and self._slot >= 0:
                arrays.release(int(arrays.cell_ids[self._slot]))
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    # ------------------------------------------------------------------ #
    # column-backed attributes
    # ------------------------------------------------------------------ #
    @property
    def cell_id(self) -> int:
        """Unique id of this cell (process-global, never reused)."""
        return int(self._arrays.cell_ids[self._slot])

    @property
    def seed(self) -> Any:
        """The (immutable) seed point this cell was created from."""
        return self._arrays.seed_of(self._slot)

    @property
    def density(self) -> float:
        """Timely density ρ at time :attr:`last_update`."""
        return float(self._arrays.density[self._slot])

    @density.setter
    def density(self, value: float) -> None:
        """Overwrite the stored (undecayed) density column in place."""
        self._arrays.density[self._slot] = value

    @property
    def created_at(self) -> float:
        """Time the cell was created."""
        return float(self._arrays.created_at[self._slot])

    @created_at.setter
    def created_at(self, value: float) -> None:
        """Overwrite the creation-time column in place."""
        self._arrays.created_at[self._slot] = value

    @property
    def last_update(self) -> float:
        """Time at which :attr:`density` was last brought up to date."""
        return float(self._arrays.last_update[self._slot])

    @last_update.setter
    def last_update(self, value: float) -> None:
        """Overwrite the density-currency timestamp column in place."""
        self._arrays.last_update[self._slot] = value

    @property
    def last_absorb(self) -> float:
        """Time the cell last absorbed a point."""
        return float(self._arrays.last_absorb[self._slot])

    @last_absorb.setter
    def last_absorb(self, value: float) -> None:
        """Overwrite the last-absorption timestamp column in place."""
        self._arrays.last_absorb[self._slot] = value

    @property
    def dependency(self) -> Optional[int]:
        """Cell id of the nearest higher-density cell (``None`` for the root)."""
        dep = self._arrays.dep[self._slot]
        return None if dep < 0 else int(dep)

    @dependency.setter
    def dependency(self, value: Optional[int]) -> None:
        """Write the dependency id column (``None`` clears it to -1)."""
        self._arrays.dep[self._slot] = -1 if value is None else value

    @property
    def delta(self) -> float:
        """Dependent distance δ to the dependency (``inf`` for the root)."""
        return float(self._arrays.delta[self._slot])

    @delta.setter
    def delta(self, value: float) -> None:
        """Overwrite the dependent-distance column in place."""
        self._arrays.delta[self._slot] = value

    @property
    def points_absorbed(self) -> int:
        """Total number of points ever absorbed (bookkeeping only)."""
        return int(self._arrays.points_absorbed[self._slot])

    @points_absorbed.setter
    def points_absorbed(self, value: int) -> None:
        """Overwrite the lifetime absorption counter in place."""
        self._arrays.points_absorbed[self._slot] = value

    @property
    def label_votes(self) -> Dict[int, int]:
        """Ground-truth label histogram (evaluation bookkeeping only)."""
        return self._arrays.label_votes_of(self._slot)

    # ------------------------------------------------------------------ #
    # behaviour
    # ------------------------------------------------------------------ #
    def density_at(self, now: float, decay: DecayModel) -> float:
        """Timely density at time ``now`` (lazy decay of the stored value)."""
        return self._arrays.density_at(self._slot, now, decay)

    def refresh(self, now: float, decay: DecayModel) -> float:
        """Decay the stored density up to ``now`` and return it."""
        density = self.density_at(now, decay)
        self._arrays.density[self._slot] = density
        self._arrays.last_update[self._slot] = now
        return density

    def absorb(self, now: float, decay: DecayModel, weight: float = 1.0,
               label: Optional[int] = None) -> float:
        """Absorb a point at time ``now`` (Equation 8) and return the new density."""
        density = self.density_at(now, decay) + weight
        arrays, slot = self._arrays, self._slot
        arrays.density[slot] = density
        arrays.last_update[slot] = now
        arrays.last_absorb[slot] = now
        arrays.points_absorbed[slot] += 1
        if label is not None:
            votes = arrays.label_votes_of(slot)
            votes[label] = votes.get(label, 0) + 1
        return density

    def majority_label(self) -> Optional[int]:
        """Most frequent ground-truth label among absorbed points, if tracked."""
        votes = self._arrays._label_votes.get(self._slot)
        if not votes:
            return None
        return max(votes.items(), key=lambda kv: kv[1])[0]

    def idle_time(self, now: float) -> float:
        """Time since the cell last absorbed a point."""
        return max(0.0, now - self.last_absorb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dep = self.dependency if self.dependency is not None else "root"
        return (
            f"ClusterCell(id={self.cell_id}, rho={self.density:.3f}, "
            f"delta={self.delta:.3f}, dep={dep})"
        )
