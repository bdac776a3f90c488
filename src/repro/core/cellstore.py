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
from repro.distance.metrics import (
    GRAM_MAX_DIM,
    GRAM_SLACK,
    float32_kernel_slack,
    gram_screen,
    pairwise_euclidean,
)

_INITIAL_CAPACITY = 64

#: Smallest ``within`` scan below ``prune_threshold``, counted as
#: rows x seeds x dim, that :func:`nearest_over_slots` screens with one
#: Gram product instead of running the exact kernel on every pair.  The
#: screen costs 55-105 µs per call whatever its size (2-core Xeon,
#: OpenBLAS), so the exact kernel wins on small scans: on the 2-d SDS
#: stream (122-427 seeds) and the 34-d KDD surrogate (88-210 seeds) the
#: screen ran at 0.45-0.9x its speed below 2¹⁵ and at 1.1-4.1x above 2¹⁷.
#: Summed over the per-call fastest of 8 runs, a full ingest's scans took,
#: in ms:
#:
#: =================  =====  ====  ====  ====
#: floor              none   2¹⁵   2¹⁶   2¹⁷
#: =================  =====  ====  ====  ====
#: SDS 20k, 98 scans  31.6   20.9  20.1  27.9
#: KDD 12k, 58 scans  58.9   50.9  50.2  50.1
#: =================  =====  ====  ====  ====
_SCAN_SCREEN_MIN_WORK = 2**16


def decayed(
    density: np.ndarray, last_update: np.ndarray, now: float, decay: DecayModel
) -> np.ndarray:
    """Stored densities held since ``last_update``, decayed to ``now`` (element-wise).

    The vector formula behind :meth:`CellStore.densities_of`, for callers
    that hold a density no longer in the arena columns.
    """
    return density * decay.rate ** np.maximum(0.0, now - last_update)


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
        """Add a cell of this store's arena by id (see :meth:`add_many`)."""
        self.add_many((cell_id,))

    def add_many(self, cell_ids: Sequence[int]) -> None:
        """Add cells of this store's arena by id, in order.

        Leaves the store as one :meth:`add` per id would.  Raises
        ``KeyError``, before any change, if an id owns no slot in the arena,
        already belongs to a population or repeats.
        """
        if isinstance(cell_ids, np.ndarray):
            cell_ids = cell_ids.tolist()
        slots = list(map(self._arrays._slot_of.__getitem__, cell_ids))
        status = self._arrays.status
        count = len(slots)
        if count == 1:
            clash = status[slots[0]] == MEMBER
        else:
            clash = len(set(cell_ids)) != count or (status[slots] == MEMBER).any()
        if clash:
            seen = set()
            for cell_id, slot in zip(cell_ids, slots):
                if status[slot] == MEMBER or cell_id in seen:
                    raise KeyError(f"cell {cell_id} already in a population")
                seen.add(cell_id)
        size = self._size
        capacity = self._slots.shape[0]
        if size + count > capacity:
            while size + count > capacity:
                capacity *= 2
            grown = np.empty(capacity, dtype=np.int64)
            grown[:size] = self._slots[:size]
            self._slots = grown
        added = self._slots[size : size + count]
        added[:] = slots
        self._pos.update(zip(cell_ids, range(size, size + count)))
        self._ids.extend(cell_ids)
        self._ids_cache = None
        self._seed_cache = None
        status[added] = MEMBER
        self._size += count
        self.version += count

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
        return self.densities_of(self._slots[: self._size], now, decay)

    def densities_of(self, slots: np.ndarray, now: float, decay: DecayModel) -> np.ndarray:
        """Timely densities of the cells at arena ``slots`` at time ``now``.

        Every density comparison the ingest path decides is made on values
        of this one vectorised formula: numpy's ``power`` and Python's
        ``**`` can differ in the last bit, so a value computed any other way
        may screen but never decide.  Each element depends only on its own
        slot, not on which others are gathered with it.
        """
        return decayed(self._arrays.density[slots], self._arrays.last_update[slots], now, decay)

    def deltas(self) -> np.ndarray:
        """Dependent distances of every stored cell (array order; a copy)."""
        return self._arrays.delta[self._slots[: self._size]]

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

    def cross_distances(
        self, positions: np.ndarray, columns: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Distances from the seeds at ``positions`` to the seeds at ``columns``.

        ``columns`` defaults to every stored seed.  Shape
        ``(len(positions), len(columns))``; every entry is the distance
        :meth:`distances_to` gives for the same pair, whichever other rows
        and columns share the call.  One call serves a whole set of
        dependency updates: row ``i`` answers "who could cell i depend on"
        while column ``j`` answers "could cell j now depend on one of these".
        """
        rows = np.asarray(positions, dtype=np.int64)
        width = self._size if columns is None else len(columns)
        if rows.size == 0 or width == 0:
            return np.empty((rows.size, width), dtype=float)
        if self._numeric and self._arrays.seeds is not None:
            seeds = self.seed_view()
            return pairwise_euclidean(seeds[rows], seeds if columns is None else seeds[columns])
        seed_of = self._arrays.seed_of
        metric = self._metric
        slots = self.slots()
        sources = [seed_of(slot) for slot in slots[rows].tolist()]
        if columns is not None:
            slots = slots[columns]
        targets = [seed_of(slot) for slot in slots.tolist()]
        return np.asarray([[metric(s, t) for t in targets] for s in sources], dtype=float)

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
    exact: bool = True,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Per-query nearest seed over arbitrary arena ``slots`` (numeric only).

    The arena-level core behind :meth:`CellStore.nearest_many`, usable over
    any slot selection — in particular the *union* of the active and
    inactive populations, which is how micro-batch assignment resolves both
    stores with a single scan.  Ties resolve to the smallest cell id, the
    canonical rule shared with the per-point assignment (``EDMStream._assign``).

    When ``within`` is given, any result at most ``within`` away is the
    exact global nearest (with exact tie-breaking and its exact kernel
    distance), while a result beyond ``within`` only promises that *no*
    seed lies within ``within`` (its distance/id may be those of a
    non-nearest seed, or ``inf``/-1).  Two paths skip work there, chosen by
    the input size:

    * above ``prune_threshold`` seeds, the *windowed* screen: queries go in
      groups of 64 by norm, and a group sees only the seeds of its norm
      window (``|‖q‖ - ‖s‖| ≤ r``);
    * below it, when rows × seeds × dim reaches
      :data:`_SCAN_SCREEN_MIN_WORK`, the same screen over all seeds.

    Either way one float64 product gives ``g = ‖s‖² - 2q·s`` for every
    (query, seed) pair the group sees, and
    :func:`~repro.distance.metrics.gram_screen` decides the rows whose
    nearest seed and side of ``within`` the exact kernel provably shares.
    A row decided beyond ``within`` is done (``inf``, -1).  A row decided
    within it has its nearest id; with ``exact=False`` it is done too and
    reports ``NaN`` for its distance (the micro-batch engine computes the
    few distances it needs), with ``exact=True`` it joins the undecided
    rows.  Those rows run the exact kernel on the seeds that pass one
    bound: ``‖q - s‖² ≤ r² + c(‖q‖² + ‖s‖²)`` for some row of the group,
    evaluated as ``(1-c)‖q‖² + g ≤ r² + c‖s‖²``, with a slack ``c`` that
    provably covers rounding.  So every distance within ``within`` that
    comes back is the one the sequential path sees.

    Why the bound never drops a seed within ``r`` (``N = ‖q‖² + ‖s‖²``,
    ``D`` the true distance; the error terms are those derived at
    :data:`~repro.distance.metrics.GRAM_SLACK`): the kernel reporting
    ``≤ r`` means ``D² ≤ r²(1 + δ)``.  The computed test differs from
    ``r² + cN - D²`` by at most ``κ(N + r²)``.  If ``N < r²/4`` then
    ``D² ≤ 2N < r²/2`` and the margin ``r²/2`` dwarfs the error.  Otherwise
    ``r² ≤ 4N`` and the slack ``cN`` must cover
    ``δr² + κ(N + r²) ≤ (4δ + 5κ)N``, which ``c = 2⁻³⁰`` does for any
    ``d < 2¹⁶``.  Float32 arenas run a float32 kernel whose ``d²`` is off
    by up to ``(d+5)·2⁻²⁴`` relative (plus the rounding of ``r`` to float32
    in the caller's comparison), so there ``r²`` is first widened by
    :func:`~repro.distance.metrics.float32_kernel_slack`, for both the norm
    window and the bound, and the screen's decisions use the same factor;
    the product itself still runs in float64 on the exact float32 values.
    A query row with a NaN is never decided and would poison its group's
    bound, which is one reason the model rejects non-finite input before
    it gets here.

    ``seeds`` optionally supplies the already-gathered ``(size, dim)`` seed
    matrix for ``slots`` (e.g. :meth:`CellStore.seed_view`), skipping the
    arena gather entirely.
    """
    size = int(slots.shape[0])
    if size == 0 or queries.shape[0] == 0:
        return None, None
    n, dim = queries.shape
    if within is not None and dim < GRAM_MAX_DIM:
        if size > prune_threshold or n * size * dim >= _SCAN_SCREEN_MIN_WORK:
            return _nearest_screened(
                arrays, slots, seeds, ids, queries, within, exact, windowed=size > prune_threshold
            )
    if seeds is None:
        seeds = arrays.seeds[slots]
    block = max(1, 8_000_000 // max(1, 8 * n))
    best = best_id = None
    for start in range(0, size, block):
        stop = min(size, start + block)
        distances = pairwise_euclidean(queries, seeds[start:stop])
        best, best_id = _merge_minima(distances, ids[start:stop], best, best_id)
    return best, best_id


def _nearest_screened(
    arrays: CellArrays,
    slots: np.ndarray,
    seeds: Optional[np.ndarray],
    ids: np.ndarray,
    queries: np.ndarray,
    within: float,
    exact: bool,
    windowed: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gram-screened nearest query (see :func:`nearest_over_slots`).

    Windowed, seeds and queries are sorted by norm once, so each group of 64
    queries sees a contiguous slice of the lifted seed matrix: its norm
    window, padded by a relative epsilon so float rounding of the norms can
    never exclude a seed within reach.  Unwindowed, groups of 256 queries
    in arrival order see every seed.
    """
    n, dim = queries.shape
    size = slots.shape[0]
    slack = float32_kernel_slack(dim) if queries.dtype == np.float32 else 0.0
    reach2 = within * within
    wide2 = reach2 * (1.0 + slack)
    seed_norm2 = arrays.seed_norm2[slots]
    query_norm2 = np.einsum("ij,ij->i", queries, queries, dtype=np.float64)
    query_order = None
    if windowed:
        # The order among equal norms is immaterial: ties between seeds the
        # exact kernel sees resolve by id.
        seed_order = np.argsort(seed_norm2)
        seed_norm2 = seed_norm2[seed_order]
        seeds = arrays.seeds[slots[seed_order]] if seeds is None else seeds[seed_order]
        ids = ids[seed_order]
        seed_norm = np.sqrt(seed_norm2)
        query_order = np.argsort(query_norm2)
        query_norm2 = query_norm2[query_order]
        queries = queries[query_order]
        query_norm = np.sqrt(query_norm2)
        reach = math.sqrt(wide2)
    elif seeds is None:
        seeds = arrays.seeds[slots]
    # Seeds lifted to [-2s, ‖s‖²] and queries to [q, 1], in float64: one
    # product gives g = ‖s‖² - 2q·s.
    lifted_seeds = np.empty((size, dim + 1))
    np.multiply(seeds, -2.0, out=lifted_seeds[:, :dim])
    lifted_seeds[:, dim] = seed_norm2
    lifted_queries = np.empty((n, dim + 1))
    lifted_queries[:, :dim] = queries
    lifted_queries[:, dim] = 1.0
    seed_bound = wide2 + GRAM_SLACK * seed_norm2
    best = np.full(n, np.inf)
    best_id = np.full(n, -1, dtype=np.int64)
    group = 64 if windowed else 256
    first, last = 0, size
    for start in range(0, n, group):
        stop = min(n, start + group)
        if windowed:
            low = float(query_norm[start])
            high = float(query_norm[stop - 1])
            margin = reach + 1e-9 * (high + reach)
            first = int(np.searchsorted(seed_norm, low - margin, side="left"))
            last = int(np.searchsorted(seed_norm, high + margin, side="right"))
            if first >= last:
                continue
        norm2 = query_norm2[start:stop]
        gram = lifted_queries[start:stop] @ lifted_seeds[first:last].T
        positions, covered, decided = gram_screen(
            gram, norm2, norm2 + seed_norm2[first:last].max(), reach2, slack
        )
        group_best = np.full(stop - start, np.inf)
        group_id = np.full(stop - start, -1, dtype=np.int64)
        inside = decided & covered
        group_id[inside] = ids[first + positions[inside]]
        if exact:
            sent = np.flatnonzero(~decided | covered)
        else:
            group_best[inside] = np.nan
            sent = np.flatnonzero(~decided)
        if sent.size:
            # The seeds some sent row may reach (the bound derived above),
            # and each sent row's nearest, which the screen left at inf.
            reachable = gram[sent] + ((1.0 - GRAM_SLACK) * norm2[sent])[:, None]
            kept = reachable.min(axis=0) <= seed_bound[first:last]
            kept[positions[sent]] = True
            keep = first + np.flatnonzero(kept)
            distances = pairwise_euclidean(queries[start + sent], seeds[keep])
            group_best[sent], group_id[sent] = _merge_minima(distances, ids[keep], None, None)
        rows = slice(start, stop) if query_order is None else query_order[start:stop]
        best[rows] = group_best
        best_id[rows] = group_id
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
