"""The bounded-memory tier: a hard byte cap over the cell state.

EDMStream's cell population grows with the diversity of the stream, so an
unbounded stream eventually exhausts RAM.  :class:`BoundedCellStore` wraps
the structure-of-arrays arena and its two population views
(:class:`~repro.core.cellstore.CellStore`) with a hard ``memory_cap_bytes``
budget enforced by *eviction to sketch*:

* When the arena would have to grow past the cap, the coldest inactive
  cells (LRU by ``last_absorb``) are evicted: each cell's decayed density
  is folded into a :class:`~repro.sketch.cms.DecayedCountMinSketch` under
  its grid key, the key is recorded in a
  :class:`~repro.sketch.bloom.BloomFilter`, and the cell's slot returns to
  the arena free-list — so the arena recycles slots instead of doubling.
* A re-arriving point that no live cell covers consults the sketch: if
  the bloom filter has seen the point's neighborhood and the count-min
  estimate is at least ``revive_min``, the newly created cell *revives*
  with ``1 + estimate`` as its starting density instead of 1 — a cold
  cluster regaining traffic recovers its density mountain instead of
  rebuilding it from scratch.

Active cells (the DP-Tree) are never evicted: the tier degrades only the
cold tail, so hot-path clustering stays exact.  With no cap configured
the model never constructs this class and behaves bit-identically to the
unbounded build.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.cellstore import CellStore
from repro.core.decay import DecayModel
from repro.core.soa import CellArrays
from repro.obs.timing import NULL_TELEMETRY
from repro.sketch.bloom import BloomFilter
from repro.sketch.cms import DecayedCountMinSketch

__all__ = ["BoundedCellStore", "SketchTier", "cell_state_footprint"]

#: Minimum cells evicted per eviction pass (amortises the LRU sort).
_MIN_EVICTION_BATCH = 32


class SketchTier:
    """The approximate cold tier: grid-keyed CMS counters plus membership.

    Parameters
    ----------
    decay:
        Decay model shared with the live cells, so sketched densities age
        at the same rate as exact ones.
    radius:
        Cluster-cell radius ``r``.  Grid keys quantise seed coordinates by
        ``2r`` (the cell diameter), so a point and the seed of the cell
        that would have absorbed it usually share a key.
    cms_width, cms_depth:
        Count-min sketch geometry.
    bloom_capacity, bloom_error_rate:
        Membership-summary sizing.
    revive_min:
        Smallest estimate worth reviving with; below it the sketch is
        treated as empty for the key (decayed-out residue, not a cluster).
    """

    def __init__(
        self,
        decay: DecayModel,
        radius: float,
        cms_width: int = 4096,
        cms_depth: int = 4,
        bloom_capacity: int = 100_000,
        bloom_error_rate: float = 0.01,
        revive_min: float = 0.05,
        seed: int = 0,
    ) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.decay = decay
        self.box = 2.0 * float(radius)
        self.revive_min = float(revive_min)
        self.cms = DecayedCountMinSketch(
            width=cms_width, depth=cms_depth, decay=decay, seed=seed
        )
        self.bloom = BloomFilter(
            capacity=bloom_capacity, error_rate=bloom_error_rate, seed=seed + 1
        )
        #: Cells folded into the sketch (lifetime).
        self.evictions = 0
        #: Total density mass folded in (lifetime, at fold time).
        self.folded_density = 0.0
        #: Estimates handed back to revived cells (lifetime).
        self.revivals = 0
        #: Total density mass handed back to revived cells.
        self.revived_density = 0.0

    @classmethod
    def auto_sized(
        cls,
        decay: DecayModel,
        radius: float,
        memory_cap_bytes: int,
        cms_width: int = 4096,
        cms_depth: int = 4,
        bloom_capacity: int = 100_000,
        bloom_error_rate: float = 0.01,
        revive_min: float = 0.05,
        seed: int = 0,
    ) -> "SketchTier":
        """Build a tier whose fixed storage fits inside a fraction of the cap.

        The sketch counts toward the budget it defends, so its geometry is
        shrunk (powers of two, never grown) until the CMS grids fit in
        about a twelfth of ``memory_cap_bytes`` and the bloom filter in
        about a twenty-fourth; the passed values act as upper bounds.
        Floors of 64 columns / 256 keys keep degenerate caps usable —
        the :class:`BoundedCellStore` constructor still rejects caps the
        floored tier cannot fit under.
        """
        import math

        cms_budget = max(1, memory_cap_bytes // 12)
        width = int(cms_width)
        # Two float64 grids of (depth, width): 16 bytes per counter.
        while width > 64 and cms_depth * width * 16 > cms_budget:
            width //= 2
        bloom_budget = max(1, memory_cap_bytes // 24)
        capacity = int(bloom_capacity)
        bits_per_key = -math.log(bloom_error_rate) / math.log(2) ** 2
        while capacity > 256 and capacity * bits_per_key / 8 > bloom_budget:
            capacity //= 2
        return cls(
            decay=decay,
            radius=radius,
            cms_width=width,
            cms_depth=cms_depth,
            bloom_capacity=capacity,
            bloom_error_rate=bloom_error_rate,
            revive_min=revive_min,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    def key_of(self, seed: Any) -> Tuple[int, ...]:
        """Grid key of a seed/point: coordinates quantised by ``2r``."""
        return tuple(int(np.floor(float(v) / self.box)) for v in seed)

    def evict(self, seed: Any, density: float, now: float) -> None:
        """Fold a cold cell's decayed density into the sketch tier."""
        key = self.key_of(seed)
        self.cms.fold(key, density, now)
        self.bloom.add(key)
        self.evictions += 1
        self.folded_density += density

    def estimate(self, point: Any, now: float) -> float:
        """Sketch-estimated density of the point's neighborhood at ``now``.

        Zero unless the bloom filter has seen the neighborhood (so CMS
        collisions cannot fabricate density for novel regions) and the
        aged estimate is at least ``revive_min``.
        """
        key = self.key_of(point)
        if key not in self.bloom:
            return 0.0
        estimate = self.cms.estimate(key, now)
        return estimate if estimate >= self.revive_min else 0.0

    def record_revival(self, density: float) -> None:
        """Count one revival that started with ``density`` from the sketch."""
        self.revivals += 1
        self.revived_density += density

    def nbytes(self) -> int:
        """Bytes held by the sketch structures (fixed at construction)."""
        return self.cms.nbytes() + self.bloom.nbytes()

    def stats(self) -> Dict[str, Any]:
        """Counters for snapshots and benchmark artifacts."""
        return {
            "evictions": self.evictions,
            "revivals": self.revivals,
            "folded_density": round(self.folded_density, 3),
            "revived_density": round(self.revived_density, 3),
            "sketch_bytes": self.nbytes(),
            "bloom_fill_ratio": round(self.bloom.fill_ratio(), 6),
        }


class BoundedCellStore:
    """Hard-memory-cap enforcement over one arena and its population views.

    The class does not replace :class:`~repro.core.cellstore.CellStore` —
    it wraps the arena plus both population stores, and is
    consulted by the model at the two moments that matter: *before slots
    are claimed* (:meth:`ensure_headroom`, which evicts instead of letting
    the arena double past the cap) and *at maintenance boundaries*
    (:meth:`enforce`, which trims Python-side state back under the cap and
    samples the peak).

    Parameters
    ----------
    arena, active, inactive:
        The model's storage: the shared arena and its two population views
        (the DP-Tree and the outlier reservoir).  Only cells in
        ``inactive`` are evictable.
    tier:
        The sketch tier evictions fold into.
    memory_cap_bytes:
        The hard budget, compared against :meth:`memory_footprint`.
    """

    def __init__(
        self,
        arena: CellArrays,
        active: CellStore,
        inactive: CellStore,
        tier: SketchTier,
        memory_cap_bytes: int,
    ) -> None:
        if memory_cap_bytes <= 0:
            raise ValueError(
                f"memory_cap_bytes must be positive, got {memory_cap_bytes}"
            )
        if tier.nbytes() >= memory_cap_bytes:
            raise ValueError(
                f"memory_cap_bytes={memory_cap_bytes} does not even cover the "
                f"sketch tier ({tier.nbytes()} bytes); raise the cap or shrink "
                "the sketch"
            )
        self.arena = arena
        self.active = active
        self.inactive = inactive
        self.tier = tier
        self.memory_cap_bytes = int(memory_cap_bytes)
        #: Times the cap could not be honoured (nothing left to evict).
        self.cap_overflows = 0
        #: Highest total footprint ever sampled.
        self.peak_bytes = 0
        #: Telemetry facade; the owning model swaps in its own when enabled.
        self.obs = NULL_TELEMETRY

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def memory_footprint(self) -> Dict[str, int]:
        """Byte accounting of the cell state (see :func:`cell_state_footprint`)."""
        return cell_state_footprint(
            self.arena, self.active, self.inactive, sketch_bytes=self.tier.nbytes()
        )

    def note_peak(self) -> int:
        """Sample the current footprint into :attr:`peak_bytes`."""
        total = self.memory_footprint()["total"]
        if total > self.peak_bytes:
            self.peak_bytes = total
        return total

    def stats(self) -> Dict[str, Any]:
        """Tier counters plus cap accounting, for snapshots and benches."""
        footprint = self.memory_footprint()
        return {
            **self.tier.stats(),
            "memory_cap_bytes": self.memory_cap_bytes,
            "cell_state_bytes": footprint["total"],
            "peak_cell_state_bytes": max(self.peak_bytes, footprint["total"]),
            "cap_overflows": self.cap_overflows,
        }

    # ------------------------------------------------------------------ #
    # cap enforcement
    # ------------------------------------------------------------------ #
    def ensure_headroom(self, n_new: int, now: float) -> int:
        """Make room for ``n_new`` allocations without growing past the cap.

        Returns the number of cells evicted.  When the arena would have to
        double past the cap — counting the side-state growth of the
        incoming allocations, so a doubling cannot squeak through on the
        column bytes alone — the deficit is covered by evicting the
        coldest inactive cells to the sketch; if the evictable population
        cannot cover it, the growth happens anyway and the resulting
        breach is counted by :meth:`enforce` — the cap is a target the
        tier defends, never a reason to drop data on the floor.  Ends
        with an :meth:`enforce` sweep, so the cap is checked (and the
        peak sampled) at every allocation wave, not only at maintenance
        boundaries.
        """
        arena = self.arena
        reserve = min(n_new * self._per_cell_side_bytes(), self.memory_cap_bytes // 8)
        available = arena.n_free + (arena.capacity - arena.high_water)
        if available >= n_new:
            return self.enforce(now, reserve_bytes=reserve)
        needed = n_new - available
        capacity = max(1, arena.capacity)
        new_capacity = capacity
        while new_capacity - capacity < needed:
            new_capacity *= 2
        projected = self.memory_footprint()["total"] + int(
            arena.nbytes() * (new_capacity / capacity - 1.0)
        )
        margin = max(1024, self.memory_cap_bytes // 128)
        if projected + reserve + margin <= self.memory_cap_bytes:
            return self.enforce(now, reserve_bytes=reserve)
        evicted = self.evict_coldest(max(needed, _MIN_EVICTION_BATCH), now)
        return evicted + self.enforce(now, reserve_bytes=reserve)

    def enforce(self, now: float, reserve_bytes: int = 0) -> int:
        """Trim live state back under the cap; samples :attr:`peak_bytes`.

        Eviction cannot shrink the arena's column storage (capacity never
        shrinks), but it does return the Python-side per-cell state of the
        cold tail, and it keeps the free-list stocked so the next
        allocation wave needs no growth.  ``reserve_bytes`` lowers the
        eviction trigger below the cap by the side-state growth the caller
        is about to commit, so an allocation wave lands under the cap
        instead of transiently crossing it before the next sweep.
        """
        total = self.note_peak()
        margin = max(1024, self.memory_cap_bytes // 128)
        threshold = self.memory_cap_bytes - int(reserve_bytes) - margin
        if total <= threshold:
            return 0
        floor = self.arena.nbytes() + self.tier.nbytes()
        evicted = 0
        if total > max(threshold, floor):
            per_cell = self._per_cell_side_bytes()
            overshoot = total - max(threshold, floor)
            target = max(_MIN_EVICTION_BATCH, int(np.ceil(overshoot / per_cell)))
            evicted = self.evict_coldest(target, now)
            total = self.note_peak()
        if total > self.memory_cap_bytes:
            # Still over the cap after the sweep: the irreducible storage
            # (arena columns + sketch + hot cells) alone exceeds it.
            self.cap_overflows += 1
        return evicted

    def _per_cell_side_bytes(self) -> int:
        """Estimated Python-side bytes one live cell holds."""
        return max(1, _side_state_bytes(self.arena) // max(1, len(self.arena)))

    def evict_coldest(self, n: int, now: float) -> int:
        """Evict up to ``n`` of the coldest inactive cells to the sketch.

        Coldness is LRU by the ``last_absorb`` column.  For each victim the
        density at ``now``, read from its key, is folded into the CMS under
        the seed's grid key,
        the key is recorded in the bloom filter, and the slot is released
        to the arena free-list.  Returns the number actually evicted.
        """
        inactive = self.inactive
        n = min(int(n), len(inactive))
        if n <= 0:
            return 0
        with self.obs.phase("sketch_evict"):
            order = np.argsort(self.arena.last_absorb[inactive.slots()], kind="stable")[:n]
            ids = inactive.ids_array()[order]
            for cell_id in ids.tolist():
                slot = self.arena.slot_of(cell_id)
                self.tier.evict(self.arena.seed_of(slot), self.arena.density_at(slot, now), now)
                inactive.remove(cell_id)
                self.arena.release(cell_id)
        if self.obs.enabled:
            self.obs.counter("cells_evicted_total").inc(int(ids.size))
            self.obs.record_event(
                "cell_evicted", time=now, count=int(ids.size), kind_detail="sweep"
            )
        return int(ids.size)

    # ------------------------------------------------------------------ #
    # revival
    # ------------------------------------------------------------------ #
    def revival_density(self, point: Any, now: float) -> float:
        """Extra starting density for a new cell seeded at ``point``.

        The sketch tier's bloom-gated estimate; zero for genuinely novel
        neighborhoods.  The caller adds it on top of the new cell's own
        first point and reports the revival back via the tier counters.
        """
        with self.obs.phase("sketch_revive"):
            estimate = self.tier.estimate(point, now)
        if estimate > 0.0:
            self.tier.record_revival(estimate)
            if self.obs.enabled:
                self.obs.counter("cells_revived_total").inc()
                self.obs.record_event("cell_revived", time=now, density=estimate)
        return estimate


def cell_state_footprint(
    arena: CellArrays,
    active: CellStore,
    inactive: CellStore,
    sketch_bytes: int = 0,
) -> Dict[str, int]:
    """Byte accounting of one model's cell state, by component.

    ``arena`` is capacity-based (the columns are allocated storage whether
    slots are live or free); ``side_state`` estimates the Python-side
    per-cell objects (seed objects, costed as a tuple per cell even where
    the arena keeps none, and the id → slot map) from live-cell counts;
    ``stores`` covers the population views' position bookkeeping;
    ``sketch`` is the fixed-size approximate tier (0 in exact mode).
    """
    side = _side_state_bytes(arena)
    stores = active.memory_footprint() + inactive.memory_footprint()
    total = arena.nbytes() + side + stores + sketch_bytes
    return {
        "arena": arena.nbytes(),
        "side_state": side,
        "stores": stores,
        "sketch": int(sketch_bytes),
        "total": total,
    }


def _side_state_bytes(arena: CellArrays) -> int:
    """Estimated Python-side bytes the arena holds per live cell.

    A seed object is costed as a d-tuple of floats (``40 + 32·d`` bytes,
    from the arena's dimension) on every numeric arena, and by a sample of
    the stored objects on a token-set arena; the id → slot map and the
    seed-object table add a fixed 200 bytes per cell.  The allowance is a
    calibrated constant: changing it changes which cells a cap evicts, so
    it still counts a tuple for a float64 arena, which stores none (its
    seed is the matrix row).  An estimate is all the cap needs — the goal
    is to scale eviction pressure with the live population, not to audit
    the allocator.
    """
    live = len(arena)
    if live == 0:
        return 0
    if arena.numeric:
        seed_bytes = sys.getsizeof((0.0,) * arena.dim) + 24 * arena.dim
    else:
        sample = next(iter(arena._seed_obj.values()), None)
        seed_bytes = sys.getsizeof(sample) if sample is not None else 64
    per_cell = seed_bytes + 200  # dict entries (slot_of, seed_obj), fixed allowance
    return live * per_cell
