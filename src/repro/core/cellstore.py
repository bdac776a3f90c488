"""Population views over the structure-of-arrays cell backbone.

EDMStream's per-point work — nearest-seed assignment and the (filtered)
dependency update — touches every cell of one of the two populations: the
active cells (:class:`~repro.core.dptree.DPTree`) and the inactive ones
(:class:`~repro.core.reservoir.OutlierReservoir`), both subclasses of
:class:`CellStore`.  The store answers those bulk queries vectorised: it
keeps a dense array of *slots* into a shared
:class:`~repro.core.soa.CellArrays` arena and gathers the relevant columns
(seeds, densities, timestamps, dependent distances) straight out of the
arena's contiguous storage.

The store holds no cell state of its own — the arena is canonical — so
there is nothing to keep coherent: moving a cell between the active and
inactive populations is pure position bookkeeping.  For non-numeric data
(token sets under the Jaccard metric) the store transparently falls back to
pure Python loops over the same API.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cell import ClusterCell
from repro.core.decay import DecayModel
from repro.core.soa import DETACHED, MEMBER, CellArrays
from repro.distance.metrics import GRAM_SLACK, float32_kernel_slack, pairwise_euclidean

_INITIAL_CAPACITY = 64


class CellStore:
    """A vectorised population view over a shared :class:`CellArrays` arena.

    Parameters
    ----------
    numeric:
        Whether seeds are numeric vectors (enables the matrix query paths).
    metric:
        Pairwise distance for non-numeric seeds; required when ``numeric``
        is false.
    arrays:
        The backing arena.  When omitted the store creates a private one,
        which is how standalone stores in tests behave; a model passes the
        same arena to both of its stores so that activating or deactivating
        a cell never copies cell state.
    """

    #: Store size above which :meth:`nearest_many` with ``within`` switches
    #: to the norm-window pruned scan (class attribute so tests can lower it
    #: and exercise the pruned path on small streams).
    prune_threshold = 512

    def __init__(
        self,
        numeric: bool = True,
        metric: Optional[Callable[[Any, Any], float]] = None,
        arrays: Optional[CellArrays] = None,
    ) -> None:
        if not numeric and metric is None:
            raise ValueError("a pairwise metric is required for non-numeric stores")
        if arrays is None:
            arrays = CellArrays(numeric=numeric)
        elif arrays.numeric != numeric:
            raise ValueError("store numeric flag does not match its backing arrays")
        self._numeric = numeric
        self._metric = metric
        self._arrays = arrays
        self._slots = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._pos: Dict[int, int] = {}
        self._ids: List[int] = []
        self._ids_cache: Optional[np.ndarray] = None
        self._seed_cache: Optional[np.ndarray] = None
        self._size = 0
        #: Bumped by every :meth:`add` / :meth:`remove`, so a caller caching
        #: something derived from the membership knows when to rebuild it.
        self.version = 0

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of cells in this population."""
        return self._size

    def __contains__(self, cell_id: int) -> bool:
        """Whether a cell id belongs to this population."""
        return cell_id in self._pos

    def cells(self) -> Iterable[ClusterCell]:
        """Read-only views of the stored cells, in array order."""
        return (self._arrays.view(cid) for cid in self._ids)

    def ids(self) -> List[int]:
        """Cell ids in array order (a copy)."""
        return list(self._ids)

    def get(self, cell_id: int) -> ClusterCell:
        """A read-only view of a stored cell; ``KeyError`` if it is not here."""
        if cell_id not in self._pos:
            raise KeyError(f"cell {cell_id} not in store")
        return self._arrays.view(cell_id)

    @property
    def numeric(self) -> bool:
        """Whether the store holds numeric seeds (and can vectorise queries)."""
        return self._numeric

    @property
    def arrays(self) -> CellArrays:
        """The backing structure-of-arrays arena (shared, canonical state)."""
        return self._arrays

    def slots(self) -> np.ndarray:
        """Arena slots of this population in array order (live, do not mutate)."""
        return self._slots[: self._size]

    def ids_array(self) -> np.ndarray:
        """Cell ids in array order as an int64 array (cached between changes).

        The cache is invalidated by :meth:`add` / :meth:`remove`, so between
        membership changes — i.e. across the thousands of absorbs a stable
        population sees — repeated callers share one array instead of
        re-converting the id list per point.  Treat the result as read-only.
        """
        if self._ids_cache is None:
            self._ids_cache = np.asarray(self._ids, dtype=np.int64)
        return self._ids_cache

    def seed_view(self) -> Optional[np.ndarray]:
        """The population's seed matrix in array order (cached, read-only).

        Seeds are written only when a cell is allocated — never while it
        sits in a store — so the gather out of the arena is a pure
        function of the membership and can be cached until the next
        :meth:`add` / :meth:`remove`.  The sequential ingestion path
        concatenates both populations' views into its scan matrix whenever
        either :attr:`version` moves, instead of fancy-gathering
        ``seeds[slots]`` per point.  ``None`` for non-numeric stores.
        """
        if not self._numeric or self._arrays.seeds is None:
            return None
        if self._seed_cache is None or self._seed_cache.shape[0] != self._size:
            gathered = self._arrays.seeds[self._slots[: self._size]]
            gathered.flags.writeable = False
            self._seed_cache = gathered
        return self._seed_cache

    def memory_footprint(self) -> int:
        """Bytes held by the store's own position bookkeeping.

        Covers the slot array, the id list and position map entries, and
        whichever query caches are currently materialised.  Cell state
        itself lives in the shared arena (see
        :meth:`CellArrays.nbytes <repro.core.soa.CellArrays.nbytes>`), so
        the two never double-count.
        """
        total = int(self._slots.nbytes)
        # dict entry + list slot + two small ints, per member (estimate).
        total += self._size * 120
        if self._ids_cache is not None:
            total += int(self._ids_cache.nbytes)
        if self._seed_cache is not None:
            total += int(self._seed_cache.nbytes)
        return total

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def add(self, cell_id: int) -> None:
        """Add a cell of this store's arena by id.

        Raises ``KeyError`` if the id owns no slot in the arena or already
        belongs to a population.
        """
        slot = self._arrays.slot_of(cell_id)
        if self._arrays.status[slot] == MEMBER:
            raise KeyError(f"cell {cell_id} already in a population")
        if self._size >= self._slots.shape[0]:
            grown = np.empty(self._slots.shape[0] * 2, dtype=np.int64)
            grown[: self._size] = self._slots[: self._size]
            self._slots = grown
        position = self._size
        self._slots[position] = slot
        self._pos[cell_id] = position
        self._ids.append(cell_id)
        self._ids_cache = None
        self._seed_cache = None
        self._arrays.status[slot] = MEMBER
        self._size += 1
        self.version += 1

    def remove(self, cell_id: int) -> int:
        """Remove a cell by id (swap-with-last compaction); returns the id.

        The cell's arena slot is *not* released — the cell usually moves to
        the other population.  Callers that are deleting the cell for good
        release the slot through the arena afterwards.
        """
        if cell_id not in self._pos:
            raise KeyError(f"cell {cell_id} not in store")
        position = self._pos.pop(cell_id)
        slot = int(self._slots[position])
        last = self._size - 1
        if position != last:
            moved_id = self._ids[last]
            self._ids[position] = moved_id
            self._pos[moved_id] = position
            self._slots[position] = self._slots[last]
        self._ids.pop()
        self._ids_cache = None
        self._seed_cache = None
        self._size -= 1
        self.version += 1
        self._arrays.status[slot] = DETACHED
        return cell_id

    # ------------------------------------------------------------------ #
    # bulk queries
    # ------------------------------------------------------------------ #
    def densities_at(self, now: float, decay: DecayModel) -> np.ndarray:
        """Timely densities of every stored cell at time ``now`` (array order)."""
        if self._size == 0:
            return np.empty(0, dtype=float)
        slots = self._slots[: self._size]
        elapsed = np.maximum(0.0, now - self._arrays.last_update[slots])
        return self._arrays.density[slots] * decay.rate**elapsed

    def deltas(self) -> np.ndarray:
        """Dependent distances of every stored cell (array order; a copy)."""
        return self._arrays.delta[self._slots[: self._size]]

    def last_updates(self) -> np.ndarray:
        """Last-update timestamps of every stored cell (array order; a copy)."""
        return self._arrays.last_update[self._slots[: self._size]]

    def raw_densities(self) -> np.ndarray:
        """Stored (undecayed) densities of every cell (array order; a copy)."""
        return self._arrays.density[self._slots[: self._size]]

    def seed_matrix(self) -> Optional[np.ndarray]:
        """A copy of the numeric seed matrix in array order.

        ``None`` for non-numeric stores; an empty ``(0, 0)`` matrix when no
        cells are stored yet.  This is what snapshot publication freezes —
        the gather out of the arena is itself a fresh array, so the serving
        side never aliases the live columns.
        """
        if not self._numeric:
            return None
        if self._arrays.seeds is None or self._size == 0:
            return np.empty((0, self._arrays.dim or 0), dtype=self._arrays.seed_dtype)
        return self.seed_view()

    def distances_to(self, point: Any) -> np.ndarray:
        """Distances from ``point`` to every stored seed (array order)."""
        if self._size == 0:
            return np.empty(0, dtype=float)
        if self._numeric and self._arrays.seeds is not None:
            query = np.asarray(point, dtype=self._arrays.seed_dtype).reshape(1, -1)
            return pairwise_euclidean(query, self.seed_view())[0]
        metric = self._metric
        return np.asarray(
            [
                metric(point, self._arrays.seed_of(int(slot)))
                for slot in self._slots[: self._size]
            ],
            dtype=float,
        )

    def seed_distances(self, cell_id: int) -> np.ndarray:
        """Distances from one stored cell's seed to every stored seed."""
        return self.distances_to(self.get(cell_id).seed)

    def distances_to_subset(self, point: Any, positions: np.ndarray) -> np.ndarray:
        """Distances from ``point`` to the seeds at the given array positions.

        Computing only the needed rows keeps the cost of a dependency update
        proportional to the number of candidates that survived the filters,
        which is what makes the Figure 11 ablation meaningful.
        """
        if len(positions) == 0:
            return np.empty(0, dtype=float)
        if self._numeric and self._arrays.seeds is not None:
            query = np.asarray(point, dtype=self._arrays.seed_dtype).reshape(1, -1)
            rows = self.seed_view()[np.asarray(positions, dtype=int)]
            return pairwise_euclidean(query, rows)[0]
        slots = self._slots[np.asarray(positions, dtype=int)]
        metric = self._metric
        return np.asarray(
            [metric(point, self._arrays.seed_of(int(slot))) for slot in slots],
            dtype=float,
        )

    def distances_to_many(self, points: Sequence[Any]) -> np.ndarray:
        """Distance matrix from several query points to every stored seed.

        Returns an array of shape ``(len(points), len(self))`` whose rows are
        bit-identical to what :meth:`distances_to` returns for each query —
        both run through the shared row-consistent kernel, so the batch
        ingestion path sees exactly the distances the sequential path sees.
        """
        n = len(points)
        if n == 0 or self._size == 0:
            return np.empty((n, self._size), dtype=float)
        if self._numeric and self._arrays.seeds is not None:
            queries = np.asarray(points, dtype=self._arrays.seed_dtype)
            return pairwise_euclidean(queries, self.seed_view())
        metric = self._metric
        seeds = [self._arrays.seed_of(int(slot)) for slot in self._slots[: self._size]]
        return np.asarray(
            [[metric(point, seed) for seed in seeds] for point in points], dtype=float
        )

    def cross_distances(self, positions: np.ndarray) -> np.ndarray:
        """Distances from the seeds at ``positions`` to every stored seed.

        Shape ``(len(positions), len(self))``; row ``i`` equals
        ``seed_distances(id_at(positions[i]))``.  One call serves a whole
        batch of dependency updates: row ``i`` answers "who could cell i
        depend on" while column ``j`` answers "could cell j now depend on one
        of these".
        """
        if len(positions) == 0:
            return np.empty((0, self._size), dtype=float)
        if self._numeric and self._arrays.seeds is not None:
            seeds = self.seed_view()
            return pairwise_euclidean(
                seeds[np.asarray(positions, dtype=int)], seeds
            )
        return self.distances_to_many(
            [self._arrays.seed_of(int(self._slots[int(p)])) for p in positions]
        )

    def nearest_many(
        self, points: Sequence[Any], within: Optional[float] = None
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Per-query nearest seed as ``(distances, cell_ids)`` arrays.

        Equivalent to taking the row minima of :meth:`distances_to_many`
        (same per-element arithmetic, same canonical smallest-id rule on
        exact distance ties) but computed over seed blocks sized to stay
        cache-resident, so the full ``(queries, cells)`` matrix never has to
        round-trip through memory.  Returns ``(None, None)`` when the store
        is empty.

        When ``within`` is given, seeds provably farther than ``within`` from
        a query may be skipped: any result at most ``within`` away is still
        the exact global nearest with exact tie-breaking, while a result
        beyond ``within`` only promises that *no* seed lies within ``within``
        (its distance/id may be those of a non-nearest seed, or ``inf``/-1).
        Above :attr:`prune_threshold` seeds two bounds do the skipping, per
        group of 64 norm-sorted queries: the norm window
        ``|‖q‖ - ‖s‖| ≤ ‖q - s‖``, then one float64 Gram-matrix test that
        keeps a seed only if some query of the group satisfies
        ``‖q - s‖² ≤ r² + c(‖q‖² + ‖s‖²)``, with a slack ``c`` that provably
        covers rounding (see :func:`nearest_over_slots`).  The exact kernel
        runs on the surviving seeds only — this is the micro-batch ingestion
        path's assignment query, where only coverage within the cell radius
        matters.
        """
        n = len(points)
        if n == 0 or self._size == 0:
            return None, None
        ids = self.ids_array()
        if not (self._numeric and self._arrays.seeds is not None):
            return _merge_minima(self.distances_to_many(points), ids, None, None)
        queries = np.asarray(points, dtype=self._arrays.seed_dtype)
        return nearest_over_slots(
            self._arrays,
            self.slots(),
            ids,
            queries,
            within,
            self.prune_threshold,
            seeds=self.seed_view(),
        )

    def position_of(self, cell_id: int) -> int:
        """Array position of a cell id (valid until the next add/remove)."""
        return self._pos[cell_id]

    def id_at(self, position: int) -> int:
        """Cell id stored at an array position."""
        return self._ids[position]

    def validate(self) -> None:
        """Check position bookkeeping against the arena (tests only)."""
        assert self._size == len(self._ids) == len(self._pos)
        for cell_id, position in self._pos.items():
            assert self._ids[position] == cell_id
            slot = int(self._slots[position])
            assert self._arrays.slot_of(cell_id) == slot, (
                f"store slot stale for cell {cell_id}"
            )
            assert int(self._arrays.cell_ids[slot]) == cell_id
            assert self._arrays.status[slot] == MEMBER, (
                f"cell {cell_id} tracked by a store but not marked MEMBER"
            )
        self._arrays.validate()


def nearest_over_slots(
    arrays: CellArrays,
    slots: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    within: Optional[float] = None,
    prune_threshold: int = 512,
    seeds: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Per-query nearest seed over arbitrary arena ``slots`` (numeric only).

    The arena-level core behind :meth:`CellStore.nearest_many`, usable over
    any slot selection — in particular the *union* of the active and
    inactive populations, which is how micro-batch assignment resolves both
    stores with a single scan.  Ties resolve to the smallest cell id, the
    canonical rule shared with the per-point assignment (``EDMStream._assign``).

    When ``within`` is given and the selection is larger than
    ``prune_threshold``, the pruned scan is used: any result at most
    ``within`` away is the exact global nearest (with exact tie-breaking),
    while a result beyond ``within`` only promises that *no* seed lies
    within ``within``.  Queries go in groups of 64 by norm.  A group's
    candidates are the seeds in its norm window (``|‖q‖ - ‖s‖| ≤ r``), cut
    down by one float64 matmul: with ``a_q = ((1-c)‖q‖² - r²)/2`` and
    ``b_s = (1-c)‖s‖²/2``, the lifted rows ``[q, -a_q]`` and ``[s, 1]``
    give ``q̃·s̃ = q·s - a_q``, and a seed is kept iff
    ``max_q q̃·s̃ ≥ b_s``, i.e. iff ``‖q - s‖² ≤ r² + c(‖q‖² + ‖s‖²)`` for
    some query of the group.  The exact kernel then runs on the kept seeds
    only, so every distance it returns is the one the sequential path sees.

    Why no seed within ``r`` is ever dropped (``N = ‖q‖² + ‖s‖²``, ``D``
    the true distance; the error terms are those derived at
    :data:`~repro.distance.metrics.GRAM_SLACK`): the kernel reporting
    ``≤ r`` means ``D² ≤ r²(1 + δ)``.  The computed test differs from
    ``(r² + cN - D²)/2`` by at most ``κ(N + r²)/2``.  If ``N < r²/4`` then
    ``D² ≤ 2N < r²/2`` and the margin ``r²/2`` dwarfs the error.  Otherwise
    ``r² ≤ 4N`` and the slack ``cN`` must cover
    ``δr² + κ(N + r²) ≤ (4δ + 5κ)N``, which ``c = 2⁻³⁰`` does for any
    ``d < 2¹⁶``.  Float32 arenas run a float32 kernel whose ``d²`` is off
    by up to ``(d+5)·2⁻²⁴`` relative (plus the rounding of ``r`` to float32
    in the caller's comparison), so there ``r²`` is first widened by
    :func:`~repro.distance.metrics.float32_kernel_slack`, for both the norm
    window and the test; the test itself still runs in float64 on the exact
    float32 values.  A query row with a NaN would poison its group's
    maximum, which is one reason the model rejects non-finite input before
    it gets here.

    ``seeds`` optionally supplies the already-gathered ``(size, dim)`` seed
    matrix for ``slots`` (e.g. :meth:`CellStore.seed_view`), skipping the
    arena gather entirely.
    """
    size = int(slots.shape[0])
    if size == 0 or queries.shape[0] == 0:
        return None, None
    if within is not None and size > prune_threshold:
        return _nearest_pruned(arrays, slots, seeds, ids, queries, within)
    if seeds is None:
        seeds = arrays.seeds[slots]
    block = max(1, 8_000_000 // max(1, 8 * queries.shape[0]))
    best = best_id = None
    for start in range(0, size, block):
        stop = min(size, start + block)
        distances = pairwise_euclidean(queries, seeds[start:stop])
        best, best_id = _merge_minima(distances, ids[start:stop], best, best_id)
    return best, best_id


def _nearest_pruned(
    arrays: CellArrays,
    slots: np.ndarray,
    seeds: Optional[np.ndarray],
    ids: np.ndarray,
    queries: np.ndarray,
    within: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Norm-windowed, Gram-bounded nearest query (see :func:`nearest_over_slots`).

    Queries are processed in norm-sorted groups of 64.  Seeds are sorted by
    norm once, so each group's norm window (padded by a relative epsilon so
    float rounding of the norms can never exclude a seed within reach) is a
    contiguous slice of the lifted seed matrix, and the Gram test is one
    matmul over that slice.
    """
    n, dim = queries.shape
    reach2 = within * within
    if queries.dtype == np.float32:
        reach2 *= 1.0 + float32_kernel_slack(dim)
    reach = math.sqrt(reach2)
    # Seeds in norm order (the order among equal norms is immaterial: ties
    # between kept seeds resolve by id), lifted to [s, 1], with b_s.
    seed_norm2 = arrays.seed_norm2[slots]
    seed_order = np.argsort(seed_norm2)
    seed_norm2 = seed_norm2[seed_order]
    seed_norm = np.sqrt(seed_norm2)
    ordered = arrays.seeds[slots[seed_order]] if seeds is None else seeds[seed_order]
    ordered_ids = ids[seed_order]
    lifted_seeds = np.empty((ordered.shape[0], dim + 1))
    lifted_seeds[:, :dim] = ordered
    lifted_seeds[:, dim] = 1.0
    seed_bound = (0.5 * (1.0 - GRAM_SLACK)) * seed_norm2
    # Queries in norm order, lifted to [q, -a_q] with ‖q‖² in float64.
    query_norm2 = np.einsum("ij,ij->i", queries, queries, dtype=np.float64)
    query_order = np.argsort(query_norm2)
    query_norm2 = query_norm2[query_order]
    sorted_queries = queries[query_order]
    lifted_queries = np.empty((n, dim + 1))
    lifted_queries[:, :dim] = sorted_queries
    lifted_queries[:, dim] = 0.5 * (reach2 - (1.0 - GRAM_SLACK) * query_norm2)
    query_norm = np.sqrt(query_norm2)
    best = np.full(n, np.inf)
    best_id = np.full(n, -1, dtype=np.int64)
    for start in range(0, n, 64):
        stop = min(n, start + 64)
        low = float(query_norm[start])
        high = float(query_norm[stop - 1])
        margin = reach + 1e-9 * (high + reach)
        first = int(np.searchsorted(seed_norm, low - margin, side="left"))
        last = int(np.searchsorted(seed_norm, high + margin, side="right"))
        if first >= last:
            continue
        gram = lifted_queries[start:stop] @ lifted_seeds[first:last].T
        keep = first + np.flatnonzero(gram.max(axis=0) >= seed_bound[first:last])
        if keep.size == 0:
            continue
        distances = pairwise_euclidean(sorted_queries[start:stop], ordered[keep])
        rows = query_order[start:stop]
        best[rows], best_id[rows] = _merge_minima(distances, ordered_ids[keep], None, None)
    return best, best_id


def _merge_minima(
    distances: np.ndarray,
    ids: np.ndarray,
    best: Optional[np.ndarray],
    best_id: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold one distance block into running per-row ``(min, min id)``.

    Exact distance ties resolve to the smallest cell id, both inside a block
    and across blocks — the canonical rule shared with the per-point
    assignment (``EDMStream._assign``).
    """
    positions = np.argmin(distances, axis=1)
    rows = np.arange(distances.shape[0])
    block_best = distances[rows, positions]
    block_id = ids[positions]
    tie_rows = np.flatnonzero(
        np.count_nonzero(distances == block_best[:, None], axis=1) > 1
    )
    for row in tie_rows:
        tied = np.flatnonzero(distances[row] == block_best[row])
        block_id[row] = ids[tied].min()
    if best is None:
        return block_best, block_id
    closer = block_best < best
    tied = (block_best == best) & (block_id < best_id)
    take = closer | tied
    best[take] = block_best[take]
    best_id[take] = block_id[take]
    return best, best_id
