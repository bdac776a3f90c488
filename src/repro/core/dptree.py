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
work.  Density maintenance (Equation 8 on the arena columns) and
dependency *selection* live in the two engines, which share the rules
below.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cellstore import CellStore


def dominates(rho_a: Any, id_a: Any, rho_b: Any, id_b: Any) -> Any:
    """Whether cell a dominates cell b (Eq. 7): higher density, or equal density and a smaller id.

    Element-wise over numpy arrays (broadcasting) and plain scalars alike.
    Only a dominating cell can be another cell's dependency.
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
    """

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
        with no dependency in the tree.
        """
        super().validate()
        slots = self.slots()
        ids = self._arrays.cell_ids[slots]
        selfish = ids[self._arrays.dep[slots] == ids]
        assert selfish.size == 0, f"cell {int(selfish[0])} depends on itself"
        _, parent, cut = self._links(np.inf)
        stuck = ids[~cut[self._jump(parent)]]
        assert stuck.size == 0, f"dependency cycle through cell {int(stuck[0])}"
