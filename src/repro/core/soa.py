"""Structure-of-arrays backing store for cluster-cells.

:class:`CellArrays` is the canonical, array-native home of every
cluster-cell a model owns.  Each cell occupies one *slot*: a row shared by
a set of contiguous parallel numpy columns (seed matrix, density keys,
timestamps, dependency ids and distances, absorption counters).  Slots are
recycled through a free-list, so steady-state ingestion — cells created,
deactivated, reactivated and deleted — performs no per-point allocation
beyond the occasional capacity doubling.

The design splits responsibilities three ways:

* **CellArrays (this module)** owns the storage: the cell-id counter,
  slot allocation and the column arrays.  :meth:`CellArrays.create_many`
  (with :meth:`CellArrays.create`, its one-seed case) is the one way new
  cells come into being; it returns the cells' ids, and every other layer
  addresses a cell by its id.  In a float64 numeric arena a cell's seed
  *is* its seed-matrix row, so creating cells from a seed array builds no
  Python object per cell; float32 and token-set arenas also keep the
  original seed objects.
* **CellStore** (:mod:`repro.core.cellstore`) is a *population view* over
  one ``CellArrays``: it maintains a dense array of slots (the active or
  the inactive population) and answers vectorised bulk queries against
  that subset.  Populations share the backbone, so moving a cell between
  them never copies cell state.
* **ClusterCell** (:mod:`repro.core.cell`) is a read-only view of one
  cell id, which resolves its slot on every read.

The storage-layout contract (column dtypes, invariants, free-list
semantics) is documented in ``docs/ARCHITECTURE.md``; the serving tier
builds on it.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.cell import ClusterCell

__all__ = ["CellArrays", "FREE", "DETACHED", "MEMBER", "ensure_cell_id_floor"]

#: Slot status codes (``CellArrays.status`` column).
FREE = 0
#: The slot belongs to a cell not (yet) tracked by any population view: a
#: cell just created, or one between population moves.
DETACHED = 1
#: The slot belongs to a cell tracked by a population view (by exactly one:
#: ``CellStore.add`` refuses a cell that is already a member).
MEMBER = 2

_INITIAL_CAPACITY = 64

#: Row types :meth:`CellArrays.check_rows` converts with one ``np.fromiter``.
_PLAIN_ROWS = frozenset((tuple, list))

#: Scalar columns grown in lock-step; name -> (dtype, fill value).
_SCALAR_COLUMNS = (
    ("key", np.float64, 0.0),
    ("created_at", np.float64, 0.0),
    ("last_absorb", np.float64, 0.0),
    ("delta", np.float64, np.inf),
    ("dep", np.int64, -1),
    ("points_absorbed", np.int64, 0),
    ("cell_ids", np.int64, -1),
    ("status", np.int8, FREE),
)


_cell_id_counter = itertools.count(1)


def ensure_cell_id_floor(minimum: int) -> None:
    """Advance the global cell-id counter so new ids start above ``minimum``.

    Used when restoring a persisted model (:mod:`repro.core.persistence`):
    cells created after the restore must not collide with the restored ids.
    """
    global _cell_id_counter
    current = next(_cell_id_counter)
    _cell_id_counter = itertools.count(max(current, minimum + 1))


class CellArrays:
    """Canonical SoA storage for the cluster-cells of one model.

    Parameters
    ----------
    numeric:
        Whether seeds are numeric vectors.  Numeric arenas keep the seeds
        in a contiguous ``(capacity, dim)`` matrix (plus squared norms);
        non-numeric arenas (token sets under Jaccard) keep seed objects in
        a side table only.  A float32 arena also keeps each seed's original
        float64 tuple there, since its rounded row cannot give it back; a
        float64 arena keeps none.
    dtype:
        Seed-matrix dtype, ``float64`` (default, exact equivalence with the
        scalar paths) or ``float32`` (half the memory traffic and a faster
        distance kernel, at ~1e-7 relative distance error).  All scalar
        columns stay float64 regardless, so density keys and timestamps
        never lose precision.
    capacity:
        Initial number of slots; grows by doubling.
    log_rate:
        ``ℓ = ln(a^λ)`` of the owning model's decay
        (:attr:`~repro.core.decay.DecayModel.log_rate`); 0, no decay, for a
        standalone arena.

    A cell's density is stored as its *key* ``κ = ln ρ − ℓ·(t − t₀)``: the
    log of its density ``ρ`` at any time ``t``, shifted by the decay since
    the origin ``t₀`` (:attr:`origin`, the model's start time).  Decay
    multiplies every density by the same factor, so the key of a cell that
    absorbs nothing never changes, and keys order the cells as their
    densities do at any common time.  :meth:`arrival_key` is the key of one
    point arriving now, and ``exp(κ − arrival_key(now))`` the density now.
    """

    def __init__(
        self,
        numeric: bool = True,
        dtype: Any = np.float64,
        capacity: int = _INITIAL_CAPACITY,
        log_rate: float = 0.0,
    ) -> None:
        self.numeric = numeric
        self.seed_dtype = np.dtype(dtype)
        if self.seed_dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"seed dtype must be float32 or float64, got {dtype!r}")
        self.capacity = max(1, int(capacity))
        #: ``ℓ = ln(a^λ)``, the log of the per-unit-time decay factor.
        self.log_rate = float(log_rate)
        #: ``t₀``, the time the keys are anchored at; the owning model sets
        #: it to its start time, at or before every time a key is read at.
        self.origin = 0.0
        self.dim: Optional[int] = None
        #: Contiguous ``(capacity, dim)`` seed matrix (numeric arenas only);
        #: allocated lazily when the first seed fixes the dimension.
        self.seeds: Optional[np.ndarray] = None
        #: Squared seed norms (float64), for the pruned nearest query's norm
        #: window and Gram-matrix bound.
        self.seed_norm2 = np.zeros(self.capacity, dtype=np.float64)
        for name, col_dtype, fill in _SCALAR_COLUMNS:
            setattr(self, name, np.full(self.capacity, fill, dtype=col_dtype))
        #: LIFO free-list of recycled slots.
        self._free: List[int] = []
        #: High-water mark: slots >= ``_top`` have never been used.
        self._top = 0
        #: cell id -> slot for every live (non-FREE) slot.
        self._slot_of: Dict[int, int] = {}
        #: slot -> original seed object (tuple / token set), the exact value
        #: handed to :meth:`create_many` or :meth:`allocate`, where the
        #: matrix row cannot give it back: token-set arenas, and float32
        #: arenas, whose row is a rounded copy.  ``None`` for float64 numeric
        #: arenas, whose row is the seed itself (see :meth:`seed_of`).
        self._seed_obj: Optional[Dict[int, Any]] = (
            None if numeric and self.seed_dtype == np.float64 else {}
        )

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of live (allocated) cells."""
        return len(self._slot_of)

    def __contains__(self, cell_id: int) -> bool:
        """Whether a cell id currently owns a slot."""
        return cell_id in self._slot_of

    def slot_of(self, cell_id: int) -> int:
        """Slot index of a cell id; raises ``KeyError`` if not allocated."""
        return self._slot_of[cell_id]

    def ids(self) -> Iterator[int]:
        """Iterate over the live cell ids (allocation order not guaranteed)."""
        return iter(self._slot_of)

    @property
    def n_free(self) -> int:
        """Number of slots currently parked on the free-list."""
        return len(self._free)

    @property
    def high_water(self) -> int:
        """Highest slot count ever allocated (capacity actually touched)."""
        return self._top

    def nbytes(self) -> int:
        """Total bytes held by the column arrays (seed objects, where kept, excluded)."""
        total = self.seed_norm2.nbytes
        if self.seeds is not None:
            total += self.seeds.nbytes
        for name, _, _ in _SCALAR_COLUMNS:
            total += getattr(self, name).nbytes
        return total

    # ------------------------------------------------------------------ #
    # slot allocation
    # ------------------------------------------------------------------ #
    def _grow(self) -> None:
        new_capacity = self.capacity * 2
        if self.seeds is not None:
            seeds = np.zeros((new_capacity, self.seeds.shape[1]), dtype=self.seed_dtype)
            seeds[: self.capacity] = self.seeds
            self.seeds = seeds
        norm2 = np.zeros(new_capacity, dtype=np.float64)
        norm2[: self.capacity] = self.seed_norm2
        self.seed_norm2 = norm2
        for name, col_dtype, fill in _SCALAR_COLUMNS:
            grown = np.full(new_capacity, fill, dtype=col_dtype)
            grown[: self.capacity] = getattr(self, name)
            setattr(self, name, grown)
        self.capacity = new_capacity

    def check_rows(self, rows: Sequence[Any], first_row: int = 0) -> np.ndarray:
        """Stack numeric input rows into a float64 matrix under the input contract.

        Every row must be a 1-D vector of finite values, as many as the
        arena's dimension (fixed by the first seed; before that, by the
        first row).  A NaN would make the nearest-seed scans compare NaN
        distances and let the batch and per-point engines diverge; a wrong
        dimension would otherwise fail deep inside the distance kernel.
        Raises ``ValueError`` naming the first offending row, counted from
        ``first_row``.
        """
        if len(rows) == 0:
            return np.empty((0, self.dim or 0))
        dim = self.dim
        matrix = None
        if type(rows[0]) in _PLAIN_ROWS:
            width = len(rows[0]) if dim is None else dim
            if set(map(type, rows)) <= _PLAIN_ROWS and set(map(len, rows)) == {width}:
                # Tuples and lists of one length: one pass over the chained
                # values.  An element that is not a scalar fails the
                # conversion and takes the general path below, which names
                # the row.
                try:
                    matrix = np.fromiter(
                        itertools.chain.from_iterable(rows), np.float64, count=len(rows) * width
                    ).reshape(len(rows), width)
                except (TypeError, ValueError, OverflowError):
                    matrix = None
        if matrix is None:
            try:
                matrix = np.asarray(rows, dtype=np.float64)
            except (TypeError, ValueError):  # ragged or non-numeric rows
                matrix = None
        if matrix is None or matrix.ndim != 2 or dim not in (None, matrix.shape[1]):
            expected = np.size(rows[0]) if dim is None else dim
            for i, row in enumerate(rows):
                if np.ndim(row) != 1:
                    raise ValueError(f"row {first_row + i} is not a 1-D vector: {row!r}")
                if np.size(row) != expected:
                    raise ValueError(
                        f"row {first_row + i} has {np.size(row)} values, "
                        f"expected {expected}: {row!r}"
                    )
            matrix = np.asarray(rows, dtype=np.float64)
        if not np.isfinite(matrix).all():
            i = int(np.argmin(np.isfinite(matrix).all(axis=1)))
            raise ValueError(
                f"row {first_row + i} has a non-finite value: {matrix[i].tolist()}"
            )
        return matrix

    def _claim(self, count: int) -> List[int]:
        """Slots for ``count`` new cells, in the order ``count`` single claims pick.

        The free-list first (LIFO), then never-used slots above the
        high-water mark, doubling the columns as often as that needs.
        """
        reused = min(count, len(self._free))
        split = len(self._free) - reused
        slots = self._free[split:][::-1]
        del self._free[split:]
        fresh = count - reused
        while self._top + fresh > self.capacity:
            self._grow()
        slots.extend(range(self._top, self._top + fresh))
        self._top += fresh
        return slots

    def _fill(
        self,
        cell_ids: Sequence[int],
        seeds: Any,
        key: Any,
        created_at: Any,
        last_absorb: Any,
        points_absorbed: Any,
    ) -> List[int]:
        """Claim a slot per id and fill the rows; returns the slots.

        The arguments are those of :meth:`create_many`, plus the ids.  A
        seed of the wrong dimension (or a seed array of the wrong shape)
        raises ``ValueError`` before any state changes.  A float64 numeric
        arena stores the rows only: the row is an exact copy of the seed.
        """
        if not cell_ids:
            return []
        objects = seeds
        if self.numeric:
            dim = self.dim
            if isinstance(seeds, np.ndarray):
                if seeds.ndim != 2:
                    raise ValueError(f"seeds must be a (count, dim) array, got shape {seeds.shape}")
                expected = seeds.shape[1] if dim is None else dim
                if seeds.shape[1] != expected:
                    raise ValueError(
                        f"seed dimension {seeds.shape[1]} does not match arena dimension {expected}"
                    )
                if self._seed_obj is not None:
                    objects = list(map(tuple, seeds.tolist()))
            else:
                expected = len(seeds[0]) if dim is None else dim
                for seed in seeds:
                    if len(seed) != expected:
                        raise ValueError(
                            f"seed dimension {len(seed)} does not match arena dimension {expected}"
                        )
            rows = np.asarray(seeds, dtype=self.seed_dtype)
        slots = self._claim(len(cell_ids))
        index = np.asarray(slots)
        if self.numeric:
            if self.seeds is None:
                self.dim = expected
                self.seeds = np.zeros((self.capacity, expected), dtype=self.seed_dtype)
            self.seeds[index] = rows
            # Squared norms of the stored (dtype-cast) rows, in float64 even
            # for float32 seeds: the screened scan's bounds rely on that
            # accuracy (``GRAM_SLACK`` covers any summation order).
            rows = rows.astype(np.float64, copy=False)
            self.seed_norm2[index] = np.einsum("ij,ij->i", rows, rows)
        self._slot_of.update(zip(cell_ids, slots))
        if self._seed_obj is not None:
            self._seed_obj.update(zip(slots, objects))
        self.key[index] = key
        self.created_at[index] = created_at
        self.last_absorb[index] = last_absorb
        self.points_absorbed[index] = points_absorbed
        self.cell_ids[index] = cell_ids
        self.status[index] = DETACHED
        return slots

    def allocate(
        self,
        cell_id: int,
        seed: Any,
        key: float = 0.0,
        created_at: float = 0.0,
        last_absorb: float = 0.0,
        points_absorbed: int = 1,
    ) -> int:
        """Claim a slot for ``cell_id`` (recycling the free-list) and fill it.

        Returns the slot, marked ``DETACHED`` and without a dependency:
        every unused slot holds ``dep = -1``, ``delta = inf`` (the fill
        values, which :meth:`release` restores).  New cells come from
        :meth:`create_many`; persistence calls this directly to restore
        saved ids.
        """
        if cell_id in self._slot_of:
            raise KeyError(f"cell {cell_id} already allocated")
        slots = self._fill([cell_id], [seed], key, created_at, last_absorb, points_absorbed)
        return slots[0]

    def release(self, cell_id: int) -> None:
        """Return a cell's slot to the free-list and drop its seed object.

        The caller is responsible for first removing the cell from its
        population view (the DP-Tree or the reservoir); releasing a slot a
        population still lists would let the slot be recycled under it.
        A :class:`~repro.core.cell.ClusterCell` view of the released id
        raises ``KeyError`` from then on, even once the slot is reused.
        """
        slot = self._slot_of.pop(cell_id)
        self.status[slot] = FREE
        self.cell_ids[slot] = -1
        self.dep[slot] = -1
        self.delta[slot] = np.inf
        if self._seed_obj is not None:
            self._seed_obj.pop(slot, None)
        self._free.append(slot)

    # ------------------------------------------------------------------ #
    # cells
    # ------------------------------------------------------------------ #
    def create_many(
        self,
        seeds: Any,
        key: Any = 0.0,
        created_at: Any = 0.0,
        last_absorb: Any = 0.0,
    ) -> np.ndarray:
        """Create one cell per seed with fresh ids from the process counter.

        ``seeds`` is a sequence of seed objects, or for numeric arenas a
        ``(count, dim)`` float array, one seed per row (its shape is checked
        once, and a float64 arena keeps no per-seed object at all: the row
        is the seed); ``key`` (see :class:`CellArrays`; the default is the
        key of density 1 at the origin) and the times are one value or one
        per seed.
        Returns the ids, ascending in seed order.  The arena ends as one
        :meth:`create` per seed, in order, leaves it: the same ids, slots,
        free-list and columns.  Each new cell has no dependency and one
        absorbed point, and its slot is ``DETACHED`` until a population
        view adds it.
        """
        cell_ids = list(itertools.islice(_cell_id_counter, len(seeds)))
        self._fill(cell_ids, seeds, key, created_at, last_absorb, 1)
        return np.asarray(cell_ids, dtype=np.int64)

    def create(
        self,
        seed: Any,
        key: float = 0.0,
        created_at: float = 0.0,
        last_absorb: float = 0.0,
    ) -> int:
        """Create one cell (the one-seed case of :meth:`create_many`); returns its id."""
        return int(
            self.create_many([seed], key=key, created_at=created_at, last_absorb=last_absorb)[0]
        )

    def view(self, cell_id: int) -> ClusterCell:
        """A read-only :class:`~repro.core.cell.ClusterCell` view of a cell id."""
        return ClusterCell(self, cell_id)

    def arrival_key(self, now: Any) -> Any:
        """Key of one point arriving at ``now``: ``−ℓ·(now − t₀)`` (element-wise).

        A density ``ρ`` held at ``now`` has key ``ln ρ + arrival_key(now)``,
        so this is also what a key is compared against to compare its
        density now with a threshold.
        """
        return -self.log_rate * (now - self.origin)

    def density_at(self, slot: int, now: float) -> float:
        """Density of the cell at ``slot`` at time ``now``, from its key.

        For showing or folding a density only; every ingest decision
        compares keys.  It underflows to 0 once the cell has idled long
        enough, while the key stays finite.  A ``now`` before the cell's
        last absorb reads the density as of that absorb: decay never runs
        backwards.
        """
        now = max(now, float(self.last_absorb[slot]))
        return math.exp(float(self.key[slot]) - self.arrival_key(now))

    def seed_of(self, slot: int) -> Any:
        """The seed of the cell at a slot, as it was handed in.

        Float64 numeric arenas rebuild the tuple of floats from the matrix
        row, an exact copy of the seed; float32 and token-set arenas return
        the stored original.
        """
        if self._seed_obj is None:
            return tuple(self.seeds[slot].tolist())
        return self._seed_obj[slot]

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check slot-accounting and key invariants (tests only)."""
        free = set(self._free)
        assert len(free) == len(self._free), "free-list contains duplicates"
        for slot in free:
            assert self.status[slot] == FREE, f"free slot {slot} not marked FREE"
            assert slot < self._top, "free-list references never-allocated slot"
        for cell_id, slot in self._slot_of.items():
            assert slot not in free, f"live cell {cell_id} sits on a free slot"
            assert self.status[slot] != FREE, f"live cell {cell_id} on FREE slot"
            assert int(self.cell_ids[slot]) == cell_id
        assert self._top <= self.capacity
        assert len(self._slot_of) + len(free) == self._top
        live = np.flatnonzero(self.status[: self._top] != FREE)
        broken = live[~np.isfinite(self.key[live])]
        assert broken.size == 0, f"key of cell {int(self.cell_ids[broken[0]])} is not finite"

