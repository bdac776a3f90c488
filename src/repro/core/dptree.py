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
on the arena columns) lives in the engines, and so does the per-point
engine's Theorem 1/2 filtered pass; every link choice uses the two rules
below.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cellstore import CellStore, decayed
from repro.core.decay import DecayModel
from repro.core.filters import FilterStatistics

#: Relative width of the key band's rounding margin ε (see
#: :meth:`DPTree.theorem_one`): 2⁻⁴⁰ = 2¹³ unit roundoffs, 256 times the
#: 32 the proof needs.
_KEY_SLACK = 2.0**-40

#: Densities below this are never placed by their key: a decayed density
#: that small may be subnormal, where rounding has no relative bound.
#: Stored densities stay under 2⁵³ (a sum of at most one unit of freshness
#: per absorbed point), so a decayed value at or above the floor is the
#: product of normal numbers.
_KEY_FLOOR = 2.0**-900

_NO_POSITIONS = np.empty(0, dtype=np.int64)
_NO_POSITIONS.flags.writeable = False


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

    **Density order.**  Equation 8 decays every cell by the same factor, so
    the time-invariant key ``κ = ln ρ − ln(a^λ)·(t − t₀)`` of a cell's
    stored density ``ρ`` at its last update ``t`` orders the active cells
    as their decayed densities do at any common time.  The tree keeps its
    cells sorted by κ in two plain lists (with an id → key map), built from
    the arena columns by the first :meth:`theorem_one` after the order was
    dropped.  While the order is live, :meth:`write_density`
    (``learn_one``'s Eq. 8 write) moves one entry and ``add``/``remove``
    insert or delete one; writers that set many densities at once (the
    batch engine's absorption pass) call :meth:`drop_density_order` first,
    and a restored model starts without an order.  The keys are a pure
    function of the ``density`` and ``last_update`` columns, so no arena
    column or saved field holds them.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: κ of every active cell, ascending; ``None`` while the order is dropped.
        self._keys: Optional[List[float]] = None
        #: Cell ids parallel to ``_keys``.
        self._key_ids: List[int] = []
        #: Cell id -> its entry's key, so a move finds the entry without
        #: reading the arena.
        self._key_of: Dict[int, float] = {}
        self._log_rate = 0.0
        self._origin = 0.0

    # ------------------------------------------------------------------ #
    # membership and density writes (keep the density order)
    # ------------------------------------------------------------------ #
    def add_many(self, cell_ids: Sequence[int]) -> None:
        """Add cells by id (see :meth:`CellStore.add_many`), each keyed into a live order."""
        super().add_many(cell_ids)
        if self._keys is not None:
            arrays = self._arrays
            for cell_id in cell_ids:
                slot = arrays.slot_of(cell_id)
                self._insert_key(
                    int(cell_id),
                    self._key(float(arrays.density[slot]), float(arrays.last_update[slot])),
                )

    def remove(self, cell_id: int) -> int:
        """Remove a cell by id (see :meth:`CellStore.remove`), deleting its key entry."""
        if self._keys is not None and cell_id in self:
            self._delete_key(cell_id)
        return super().remove(cell_id)

    def write_density(self, cell_id: int, slot: int, density: float, now: float) -> None:
        """Store a member's density at time ``now`` (Equation 8), moving its key entry."""
        self._arrays.density[slot] = density
        self._arrays.last_update[slot] = now
        if self._keys is not None:
            self._delete_key(cell_id)
            self._insert_key(cell_id, self._key(density, now))

    def drop_density_order(self) -> None:
        """Forget the density order; the next :meth:`theorem_one` rebuilds it."""
        self._keys = None
        self._key_ids = []
        self._key_of = {}

    def _key(self, density: float, time: float) -> float:
        """κ of a density held at ``time``; ``-inf`` for a density that underflowed to 0."""
        if density <= 0.0:
            return -math.inf
        return math.log(density) - self._log_rate * (time - self._origin)

    def _insert_key(self, cell_id: int, key: float) -> None:
        index = bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self._key_ids.insert(index, cell_id)
        self._key_of[cell_id] = key

    def _delete_key(self, cell_id: int) -> None:
        key = self._key_of.pop(cell_id)
        keys = self._keys
        index = self._key_ids.index(cell_id, bisect_left(keys, key), bisect_right(keys, key))
        del keys[index]
        del self._key_ids[index]

    def _build_order(self, decay: DecayModel, origin: float) -> None:
        self._log_rate = math.log(decay.rate)
        self._origin = origin
        slots = self.slots()
        key_of = {
            cell_id: self._key(density, time)
            for cell_id, density, time in zip(
                self._ids,
                self._arrays.density[slots].tolist(),
                self._arrays.last_update[slots].tolist(),
            )
        }
        self._key_ids = sorted(key_of, key=key_of.__getitem__)
        self._keys = [key_of[cell_id] for cell_id in self._key_ids]
        self._key_of = key_of

    # ------------------------------------------------------------------ #
    # Theorem 1 by key range
    # ------------------------------------------------------------------ #
    def theorem_one(
        self,
        cell_id: int,
        dependency: int,
        now: float,
        rho_before: float,
        rho_after: float,
        decay: DecayModel,
        origin: float,
        stored_before: Tuple[float, float],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """What a member's absorption at ``now`` changes in the dominance relation.

        ``cell_id`` went from ``rho_before`` to ``rho_after`` (already
        written through :meth:`write_density`); ``stored_before`` is the
        ``(density, last_update)`` pair its columns held before that write.
        Returns the array positions, ascending, of the cells it *newly*
        dominates — those with ``ρ̂ ≤ ρ_c`` that it dominates now
        (Theorem 1) — and, when its link to ``dependency`` went stale (the
        dependency is not in the tree, ``-1`` for none, or the absorber now
        dominates it), the array positions, ascending, of its dominators,
        for :meth:`relink`; ``None`` while the link holds.  ``ρ_c`` is the
        value :meth:`densities_of` gives at ``now``, exactly as a full
        density vector would, and ``ρ̂`` is ``stored_before`` decayed to
        ``now`` by the same formula: ``rho_before``, the scalar value Eq. 8
        added one to, can differ from it in the last bit, and a tie with a
        cell seeded at the same time must stay a tie.  ``origin`` (the
        model's start time, at or before every stored ``last_update``) is
        t₀ of the keys.

        Two bisects find the band ``[K(ρ_lo) − ε, K(rho_after) + ε]``, with
        ``K(ρ) = ln ρ − ℓ̂·(now − t₀)`` the key a density ``ρ`` held at
        ``now`` would have and ``ρ_lo = max(rho_before, 2⁻⁹⁰⁰)``; below the
        floor the band starts at the lowest key.  Two more bisects split
        off the cells at least ε inside both ends, which their keys decide;
        the knife-edge rest, and an own dependency within ε of
        ``K(rho_after)``, are decided on the exact values.  The absorber's
        dominators are the cells above the band, whose keys prove them
        denser, and the knife-edge cells the exact values decide.

        **Why ε is a bound.**  With ``u = 2⁻⁵³``, ``ℓ = ln(a^λ)`` exactly,
        and math ``log``/numpy ``power`` accurate to a few units in the last
        place (relative error ≤ 4u on normal results), write the ideal key
        of a value ``x`` as ``I(x) = ln x − ℓ·(now − t₀)``; a cell's exact
        key ``ι_c = ln ρ_c − ℓ·(t_c − t₀)`` equals ``I`` of its exactly
        decayed density.  With ``M = max(|ln ρ_lo|, |ln rho_after|)`` and
        ``Λ = |ℓ|·(now − t₀)``, for a cell whose value lies in
        ``[ρ_lo, rho_after]`` (so ``|ln ρ_c| ≤ M + Λ + 1``):

        * key rounding: ``|κ_c − ι_c| ≤ 6u·|ln ρ_c| + 9u·|ℓ|·(t_c − t₀)``
          (``log``, the elapsed-time subtraction, ``ℓ̂ = fl(ln a^λ)``, the
          product and the difference);
        * decay rounding: ``|ln v_c − ι_c − ℓ·(now − t₀)| ≤ 6u + u·Λ`` for
          the vector value ``v_c`` (``power``, the product, and the rounded
          elapsed time), valid because ``v_c ≥ 2⁻⁹⁰⁰`` makes every factor
          normal;
        * query rounding: ``|K(ρ) − I(ρ)| ≤ 6u·|ln ρ| + 9u·Λ``.

        Their sum is below ``32u·(M + Λ + 1)``, and
        ``ε = 2⁻⁴⁰·(M + Λ + 1 + T/2⁸)``, ``T = now − t₀``, is 256 times that
        (the ``T`` term is for ``ρ̂``, below).  (A cell whose value lies
        below half of ``ρ_lo`` or above twice ``rho_after`` is farther from
        the band than any rounding, so the bound on ``|ln ρ_c|`` loses
        nothing.)  So ``v_c ≥ ρ_lo`` puts κ_c at or above
        ``K(ρ_lo) − ε``, ``v_c ≤ rho_after`` puts it at or below
        ``K(rho_after) + ε``, and a key more than ε inside an end proves
        its value strictly inside that end.  ``rho_before`` is
        ``a ** (λ·Δt)`` times the stored density and ``ρ̂`` is
        ``fl(a^λ) ** Δt`` times it, over the same rounded ``Δt ≤ T``, so
        ``|ln ρ̂ − ln rho_before| ≤ u·(2T + Λ + 10)`` (the rate, within
        2u, raised to ``Δt``; the rounded ``λ·Δt``; two ``pow`` and two
        products), which ε's ``T`` term covers 16 times over and its spare
        margin the rest.  So the same holds with ``ρ̂`` in place of ``ρ_lo``:
        only the lower knife edge needs ``ρ̂``, computed when that edge holds
        a cell.  The decisions thus equal a full :func:`dominates` mask's,
        bit for bit, whatever the rounding.
        A density that underflowed to 0 has key ``-inf`` and sorts first.
        """
        if self._keys is None:
            self._build_order(decay, origin)
        keys = self._keys
        floor = max(rho_before, _KEY_FLOOR)
        log_lo = math.log(floor)
        log_hi = math.log(rho_after)
        elapsed = now - self._origin
        shift = self._log_rate * elapsed  # as in _key
        key_lo = log_lo - shift
        key_hi = log_hi - shift
        epsilon = _KEY_SLACK * (max(-log_lo, log_hi) - shift + 1.0 + elapsed / 256)
        inner_lo = key_lo + epsilon
        inner_hi = key_hi - epsilon
        first = bisect_left(keys, key_lo - epsilon) if rho_before >= _KEY_FLOOR else 0
        last = bisect_right(keys, key_hi + epsilon, first)
        inner = bisect_left(keys, inner_lo, first, last)
        outer = bisect_left(keys, inner_hi, inner, last)
        ids = self._key_ids
        kept = ids[inner:outer]
        edge = ids[first:inner] + ids[outer:last]
        edge.remove(cell_id)  # the absorber's own key is K(rho_after)

        # The own link is stale when the absorber now dominates its
        # dependency; a knife-edge dependency rides along as the last edge
        # entry and is decided with the band.
        stale = dependency not in self._pos
        own_edge = False
        if not stale:
            key = self._key_of[dependency]
            stale = key < inner_hi
            own_edge = not stale and key <= key_hi + epsilon
            if own_edge:
                edge.append(dependency)
        higher: List[int] = []
        if edge:
            slots = np.fromiter(map(self._arrays.slot_of, edge), np.int64, len(edge))
            values = self.densities_of(slots, now, decay)
            edge_ids = np.asarray(edge, dtype=np.int64)
            dominated = dominates(rho_after, cell_id, values, edge_ids)
            if own_edge:
                stale = bool(dominated[-1])
                dominated, values, edge_ids = dominated[:-1], values[:-1], edge_ids[:-1]
            # The lower knife edge is decided against ρ̂; every cell above
            # inner_lo lies above ρ̂ and rho_before alike.
            threshold = rho_before
            if first < inner:
                density, last_update = stored_before
                threshold = decayed(np.array([density]), np.array([last_update]), now, decay)[0]
            kept.extend(edge_ids[dominated & (values >= threshold)].tolist())
            if stale:
                # Of two distinct cells exactly one dominates the other.
                higher = edge_ids[~dominated].tolist()
        dominators = None
        if stale:
            higher.extend(ids[last:])
            dominators = self._positions(higher)
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
        densities: Optional[np.ndarray],
        stats: FilterStatistics,
        repoint: bool = True,
        dominators: Optional[np.ndarray] = None,
    ) -> None:
        """Give the cells at ``positions`` their Eq. 7/9 links, on one distance block.

        ``densities`` are every active cell's densities at the current time
        (array order).  Each listed cell links to its nearest dominator —
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
        ``dominators`` (without ``repoint``); then ``densities`` is not
        read, the block is that one row over exactly those columns, and the
        link is read off its minimum and the ids at it, with no mask.
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

        rows_rho = densities[positions, None]
        rows_id = ids[positions, None]
        higher = dominates(densities, ids, rows_rho, rows_id)
        needed = higher.any(axis=0)
        if repoint:
            lower = dominates(rows_rho, rows_id, densities, ids)
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
        with no dependency in the tree.  While the density order is live it
        holds every member once, sorted, each key equal to κ recomputed
        from the arena columns.
        """
        super().validate()
        if self._keys is not None:
            assert sorted(self._key_ids) == sorted(self._ids), "density order membership stale"
            assert all(a <= b for a, b in zip(self._keys, self._keys[1:])), (
                "density order unsorted"
            )
            arrays = self._arrays
            for key, cell_id in zip(self._keys, self._key_ids):
                slot = arrays.slot_of(cell_id)
                expected = self._key(float(arrays.density[slot]), float(arrays.last_update[slot]))
                assert key == self._key_of[cell_id] == expected, (
                    f"density key of cell {cell_id} stale"
                )
        slots = self.slots()
        ids = self._arrays.cell_ids[slots]
        selfish = ids[self._arrays.dep[slots] == ids]
        assert selfish.size == 0, f"cell {int(selfish[0])} depends on itself"
        _, parent, cut = self._links(np.inf)
        stuck = ids[~cut[self._jump(parent)]]
        assert stuck.size == 0, f"dependency cycle through cell {int(stuck[0])}"
