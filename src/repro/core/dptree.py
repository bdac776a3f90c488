"""The Dependency Tree (DP-Tree) over cluster-cells (Section 2.2).

Every active cluster-cell depends on exactly one other active cell — its
nearest higher-density cell — except for the absolute density peak, which is
the tree root.  A *strongly dependent* link has dependent distance δ ≤ τ;
the clusters are the Maximal Strongly Dependent SubTrees (MSDSubTrees,
Definition 2), i.e. the connected components obtained after cutting every
weak link.

:class:`DPTree` *is* the active population: a
:class:`~repro.core.cellstore.CellStore` over the model's arena whose
links are the arena's ``dep``/``delta`` columns.  It keeps no per-cell
container of its own.  Cluster extraction cuts the links with δ > τ and
pointer-jumps every active slot to its cluster root in O(n log n) array
work.

:meth:`DPTree.relink` is the one link writer on the ingest path of both
engines: it gives listed cells their nearest dominator (Eq. 7/9) and
repoints the cells they now dominate more closely, on one distance block
restricted to the columns that matter.  Density maintenance (Equation 8
on the arena's key column) lives in the engines, and so does the per-point
engine's Theorem 1/2 filtered pass; every link choice uses the two rules
below.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cellstore import CellStore
from repro.core.filters import FilterStatistics

_NO_POSITIONS = np.empty(0, dtype=np.int64)
_NO_POSITIONS.flags.writeable = False


def dominates(rho_a: Any, id_a: Any, rho_b: Any, id_b: Any) -> Any:
    """Whether cell a dominates cell b (Eq. 7): higher density, or equal density and a smaller id.

    Element-wise over numpy arrays (broadcasting) and plain scalars alike.
    Only a dominating cell can be another cell's dependency.  Density keys
    order the cells as their densities do, so the engines pass keys.
    """
    return (rho_a > rho_b) | ((rho_a == rho_b) & (id_a < id_b))


def lex_improves(distance: Any, parent: Any, delta: Any, dep: Any) -> Any:
    """Whether a new dominator ``parent`` at ``distance`` replaces the link ``(dep, delta)``.

    Canonical rule: strictly closer, or equally close with a smaller parent
    id than the current dependency (no dependency, ``-1``, loses every tie).
    With :func:`dominates` this makes the dependency graph a pure function
    of the current densities and (static) seed distances, independent of
    update order.  Element-wise like :func:`dominates`.
    """
    return (distance < delta) | ((distance == delta) & ((dep == -1) | (parent < dep)))


class DPTree(CellStore):
    """The active population, whose dependency links form the DP-Tree.

    The tree may transiently be a forest (several cells with no dependency)
    while densities shift; cluster extraction treats every cell without a
    dependency in the tree as a subtree root, so the structure is always
    well defined.  Membership (``add``/``remove``) is the store's.

    **Density order.**  The arena's ``key`` column orders the cells as
    their densities do at any common time (see
    :class:`~repro.core.soa.CellArrays`), so dominance (Eq. 7) is a compare
    of ``(κ, −id)`` pairs: a cell dominates every cell whose pair is
    smaller.  The tree keeps its cells' pairs sorted in one plain list,
    built from the key column by the first :meth:`theorem_one` after the
    order was dropped.  While the order is live, :meth:`write_key`
    (``learn_one``'s Eq. 8 write) moves one entry and ``add``/``remove``
    insert or delete one; writers that set many keys at once (the batch
    engine's absorption pass) call :meth:`drop_density_order` first, and a
    restored model starts without an order.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: ``(κ, −id)`` of every active cell, ascending; ``None`` while dropped.
        self._order: Optional[List[Tuple[float, int]]] = None

    # ------------------------------------------------------------------ #
    # membership and key writes (keep the density order)
    # ------------------------------------------------------------------ #
    def add_many(self, cell_ids: Sequence[int]) -> None:
        """Add cells by id (see :meth:`CellStore.add_many`), each placed in a live order."""
        super().add_many(cell_ids)
        if self._order is not None:
            arrays = self._arrays
            for cell_id in cell_ids:
                cell_id = int(cell_id)
                insort(self._order, (float(arrays.key[arrays.slot_of(cell_id)]), -cell_id))

    def remove(self, cell_id: int) -> int:
        """Remove a cell by id (see :meth:`CellStore.remove`), deleting its order entry."""
        if self._order is not None and cell_id in self:
            self._delete_entry(cell_id, self._arrays.slot_of(cell_id))
        return super().remove(cell_id)

    def write_key(self, cell_id: int, slot: int, key: float) -> None:
        """Store a member's new key (Equation 8), moving its order entry."""
        if self._order is not None:
            self._delete_entry(cell_id, slot)
            insort(self._order, (key, -cell_id))
        self._arrays.key[slot] = key

    def drop_density_order(self) -> None:
        """Forget the density order; the next :meth:`theorem_one` rebuilds it."""
        self._order = None

    def _delete_entry(self, cell_id: int, slot: int) -> None:
        """Delete a member's entry, found by its key, still in the column."""
        order = self._order
        del order[bisect_left(order, (float(self._arrays.key[slot]), -cell_id))]

    def _sorted_pairs(self) -> List[Tuple[float, int]]:
        """The members' ``(κ, −id)`` pairs from the key column, ascending."""
        return sorted(zip(self.keys().tolist(), (-self.ids_array()).tolist()))

    # ------------------------------------------------------------------ #
    # Theorem 1 by key range
    # ------------------------------------------------------------------ #
    def theorem_one(
        self, cell_id: int, dependency: int, key_before: float
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """What a member's absorption changes in the dominance relation.

        ``cell_id``'s key went from ``key_before`` to the value in its
        column (written through :meth:`write_key`).  Returns the array
        positions, ascending, of the cells it *newly* dominates — those
        whose key is at least ``key_before`` and that it dominates now
        (Theorem 1) — and, when its link to ``dependency`` went stale (the
        dependency is not in the tree, ``-1`` for none, or the absorber now
        dominates it), the array positions, ascending, of its dominators,
        for :meth:`relink`; ``None`` while the link holds.

        Both answers are slices of the density order: the newly dominated
        cells lie between the first pair with key ``key_before`` and the
        absorber's own entry, its dominators above that entry.  The keys are
        the stored values every other decision reads, so two bisects decide
        exactly what a full :func:`dominates` mask would.
        """
        arrays = self._arrays
        if self._order is None:
            self._order = self._sorted_pairs()
        order = self._order
        own = (float(arrays.key[arrays.slot_of(cell_id)]), -cell_id)
        top = bisect_left(order, own)
        first = bisect_left(order, (key_before,))
        kept = [-negated for _, negated in order[first:top]]
        dominators = None
        if dependency not in self._pos or (
            (float(arrays.key[arrays.slot_of(dependency)]), -dependency) < own
        ):
            dominators = self._positions([-negated for _, negated in order[top + 1 :]])
        return self._positions(kept), dominators

    def _positions(self, cell_ids: List[int]) -> np.ndarray:
        """Ascending array positions of member ``cell_ids``."""
        if not cell_ids:
            return _NO_POSITIONS
        positions = np.fromiter(map(self._pos.__getitem__, cell_ids), np.int64, len(cell_ids))
        positions.sort()
        return positions

    def set_dependency(
        self, cell_id: int, dependency: Optional[int], delta: float
    ) -> None:
        """Point ``cell_id`` at a new dependency with dependent distance ``delta``."""
        if cell_id not in self:
            raise KeyError(f"cell {cell_id} not in DP-Tree")
        if dependency is not None:
            if dependency == cell_id:
                raise ValueError(f"cell {cell_id} cannot depend on itself")
            if dependency not in self:
                raise KeyError(f"dependency {dependency} not in DP-Tree")
        slot = self._arrays.slot_of(cell_id)
        self._arrays.dep[slot] = -1 if dependency is None else dependency
        self._arrays.delta[slot] = delta if dependency is not None else np.inf

    def relink(
        self,
        positions: np.ndarray,
        stats: FilterStatistics,
        repoint: bool = True,
        dominators: Optional[np.ndarray] = None,
    ) -> None:
        """Give the cells at ``positions`` their Eq. 7/9 links, on one distance block.

        Dominance is read off the key column.  Each listed cell links to its nearest dominator —
        the smallest id among exactly equidistant ones — or to nothing.
        With ``repoint`` every other cell that a listed cell dominates moves
        to that cell when it is nearer than its current link
        (:func:`lex_improves`).  This is exact when the listed cells are the
        only ones that can have entered another cell's dominator set since
        the links were last exact, as absorbers and newly activated cells
        are.

        The dominance masks need no distances, so the block holds only the
        columns some listed cell can link to or repoint: a one-cell refresh
        without ``repoint`` measures just its dominators.  ``stats`` counts
        every distance the block holds and every ``(dep, δ)`` that changes.

        A caller that already knows the dominators of a single listed cell,
        as :meth:`theorem_one` does, passes their positions, ascending, as
        ``dominators`` (without ``repoint``); then no key is read, the
        block is that one row over exactly those columns, and the link is
        read off its minimum and the ids at it, with no mask.
        """
        ids = self.ids_array()
        arrays = self._arrays
        if dominators is not None:
            row = self.cross_distances(positions, dominators)[0]
            stats.distance_computations += row.size
            dep, delta = -1, math.inf
            if row.size:
                delta = float(row.min())
                if math.isfinite(delta):
                    dep = int(ids[dominators[row == delta]].min())
            slot = self._slots[positions[0]]
            if dep != arrays.dep[slot] or delta != arrays.delta[slot]:
                stats.dependency_changes += 1
            arrays.dep[slot] = dep
            arrays.delta[slot] = delta
            return

        keys = self.keys()
        rows_key = keys[positions, None]
        rows_id = ids[positions, None]
        higher = dominates(keys, ids, rows_key, rows_id)
        needed = higher.any(axis=0)
        if repoint:
            lower = dominates(rows_key, rows_id, keys, ids)
            lower[:, positions] = False
            needed |= lower.any(axis=0)
        columns = needed.nonzero()[0]
        higher = higher[:, columns]
        block = self.cross_distances(positions, columns)
        stats.distance_computations += int(block.size)

        # Own links: row minimum over the dominators, then the smallest id
        # among the entries at that minimum.
        id_max = np.iinfo(np.int64).max
        candidates = np.where(higher, block, np.inf)
        delta = candidates.min(axis=1, initial=np.inf)
        nearest = np.where(candidates == delta[:, None], ids[columns], id_max).min(
            axis=1, initial=id_max
        )
        dep = np.where(np.isfinite(delta), nearest, -1)
        slots = self.slots()[positions]
        stats.dependency_changes += int(
            np.count_nonzero((dep != arrays.dep[slots]) | (delta != arrays.delta[slots]))
        )
        arrays.dep[slots] = dep
        arrays.delta[slots] = delta
        if not repoint or columns.size == 0:
            return

        # Repoints: column minimum over the listed cells that dominate the
        # column, smallest listed id on a tie, kept only where it beats the
        # column's current link.
        entrants = np.where(lower[:, columns], block, np.inf)
        distance = entrants.min(axis=0)
        col_slots = self.slots()[columns]
        closer = (np.isfinite(distance) & (distance <= arrays.delta[col_slots])).nonzero()[0]
        if closer.size == 0:
            return
        distance = distance[closer]
        col_slots = col_slots[closer]
        parents = np.where(entrants[:, closer] == distance, rows_id, id_max).min(axis=0)
        winners = lex_improves(distance, parents, arrays.delta[col_slots], arrays.dep[col_slots])
        stats.dependency_changes += int(np.count_nonzero(winners))
        arrays.dep[col_slots[winners]] = parents[winners]
        arrays.delta[col_slots[winners]] = distance[winners]

    def link_deltas(self) -> np.ndarray:
        """Finite dependent distances of the cells that have a dependency."""
        slots = self.slots()
        delta = self._arrays.delta[slots]
        return delta[(self._arrays.dep[slots] != -1) & np.isfinite(delta)]

    # ------------------------------------------------------------------ #
    # cluster extraction
    # ------------------------------------------------------------------ #
    def _links(self, tau: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids, parent positions and cut mask of the active slots (array order).

        A cell is cut — it starts its own cluster — when its dependency is
        not in the tree (none, or dangling) or its link is weak (δ > τ);
        a cut cell is its own parent.
        """
        slots = self.slots()
        ids = self._arrays.cell_ids[slots]
        order = np.argsort(ids)
        dep = self._arrays.dep[slots]
        parent = order[np.minimum(np.searchsorted(ids[order], dep), max(ids.size - 1, 0))]
        cut = (ids[parent] != dep) | (self._arrays.delta[slots] > tau)
        return ids, np.where(cut, np.arange(ids.size), parent), cut

    def _jump(self, parent: np.ndarray) -> np.ndarray:
        """Pointer jumping: ``parent = parent[parent]`` to a fixed point.

        A forest of ``n`` nodes is at most ``n - 1`` links deep, so
        ⌈log₂ n⌉ jumps reach every root and one more confirms it; the bound
        keeps a corrupted (cyclic) tree from hanging the caller —
        :meth:`validate` reports it instead.
        """
        for _ in range((parent.size - 1).bit_length() + 1):
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        return parent

    def cluster_roots(self, tau: float) -> np.ndarray:
        """Cluster-root cell id of every active cell, in array order."""
        ids, parent, _ = self._links(tau)
        return ids[self._jump(parent)]

    def clusters(self, tau: float) -> Dict[int, List[int]]:
        """Extract the MSDSubTrees for threshold ``tau``.

        Returns a mapping from cluster-root cell id to the sorted list of
        member cell ids, with the roots in ascending id order.  A cell
        starts its own cluster when it has no dependency in the tree or its
        dependent distance exceeds ``tau`` (weak link); otherwise it joins
        its dependency's cluster.  The result is a pure function of the
        links, never of the store's array order.
        """
        ids, parent, _ = self._links(tau)
        if ids.size == 0:
            return {}
        roots = ids[self._jump(parent)]
        order = np.lexsort((ids, roots))
        members = ids[order].tolist()
        roots = roots[order]
        bounds = (np.flatnonzero(roots[1:] != roots[:-1]) + 1).tolist()
        starts = [0] + bounds
        stops = bounds + [len(members)]
        return {
            root: members[start:stop]
            for root, start, stop in zip(roots[starts].tolist(), starts, stops)
        }

    def cluster_assignment(self, tau: float) -> Dict[int, int]:
        """Mapping cell id -> cluster-root cell id for threshold ``tau``."""
        ids, parent, _ = self._links(tau)
        return dict(zip(ids.tolist(), ids[self._jump(parent)].tolist()))

    def num_clusters(self, tau: float) -> int:
        """Number of MSDSubTrees for threshold ``tau`` (one per cut cell)."""
        return int(np.count_nonzero(self._links(tau)[2]))

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on violation.

        Used by tests and property-based checks: the store's position
        bookkeeping holds, no cell depends on itself, and the dependency
        relation is acyclic — every cell's pointer chain ends at a cell
        with no dependency in the tree.  A live density order equals the
        members' ``(κ, −id)`` pairs read from the key column, sorted.
        """
        super().validate()
        if self._order is not None:
            assert self._order == self._sorted_pairs(), "density order stale"
        slots = self.slots()
        ids = self._arrays.cell_ids[slots]
        selfish = ids[self._arrays.dep[slots] == ids]
        assert selfish.size == 0, f"cell {int(selfish[0])} depends on itself"
        _, parent, cut = self._links(np.inf)
        stuck = ids[~cut[self._jump(parent)]]
        assert stuck.size == 0, f"dependency cycle through cell {int(stuck[0])}"
