"""Micro-batch ingestion for EDMStream.

:class:`BatchIngestor` processes a stream in micro-batches while producing
the same cell populations and cluster partitions as the per-point
:meth:`~repro.core.edmstream.EDMStream.learn_one` loop.  The speed-up comes
from three observations about the per-point work of Section 4:

1. **Assignment is a pure nearest-seed query.**  Which cell absorbs a point
   depends only on the set of seeds (seeds never move, Definition 4), so the
   point→seed distances of a whole batch can be computed as one vectorised
   matrix operation against the :class:`~repro.core.cellstore.CellStore`
   seed matrix, and a Gram-matrix screen settles most points without the
   exact kernel.  The points that fall outside every existing cell pick the
   chunk's new seeds among themselves, in arrival order, from one distance
   block, and all of them become cells in one arena call.  A point equal
   to the one just before it (byte-equal in the arena dtype) takes that
   point's absorber without being measured: inside a chunk the seeds change
   only by the chunk's own creations, and none can happen between two
   adjacent points, so both have the same nearest seed.  Equal points that
   are not adjacent are measured separately, since a seed created between
   them can be nearer to the second.

2. **Density updates compose.**  A cell absorbing ``k`` points inside a
   batch ends at ``ρ·a^{λΔ} + Σ a^{λ(t_k - t_i)}`` (Equation 8 applied ``k``
   times).  On density keys (:class:`~repro.core.soa.CellArrays`) that is
   one log-sum-exp of the old key and the points' arrival keys, evaluated
   once per (cell, batch) for all cells at once, with the arrivals shifted
   by the last (largest) arrival key so that nothing can overflow.

3. **Dependencies depend only on the final density order.**  Pure decay
   preserves the relative density order of any two cells (both shrink by
   the same factor per unit time), so within a batch the order changes only
   at absorptions and the set of higher-density cells seen by a non-absorbing
   cell can only gain members.  Deferring the Theorem 1 / Theorem 2 filtered
   updates to the batch boundary therefore reaches the same fixed point: one
   :meth:`~repro.core.dptree.DPTree.relink` of the "dirty" cells (absorbers
   and newly activated cells) recomputes each one's link exactly and
   repoints every other active cell that a dirty cell now dominates more
   closely — one distance block per chunk instead of one filtered pass per
   point, through the same link writer ``learn_one`` uses.  The chunk's
   key writes drop the DP-Tree's density-key order, which
   ``learn_one``'s Theorem 1 band reads; the next per-point absorb rebuilds
   it from the key column.

Periodic work (decay sweeps, τ re-optimisation, evolution snapshots) and the
initial DP-Tree construction fire at stream-time boundaries, so batches are
split into *chunks* at exactly the points where the sequential path would
have triggered them; the model's own maintenance code then runs on identical
state.

Equivalence caveats: (1) *tie-breaking* — both paths share the canonical
rules (nearest seed / dominator with the smallest cell id wins exact
distance ties, density ties order by id), so exact ties resolve
identically; (2) *float rounding* — both engines decide on the same keys
against thresholds of one formula (``EDMStream._threshold_keys``), and a
cell absorbing one point in a batch gets the key ``learn_one`` gives it,
step for step; a cell absorbing several gets one log-sum-exp
instead of ``k`` rounded steps, so its key can differ from the per-point
key in the last bits, and a key comparison sitting within those bits of
another key or a threshold (activation, dominance) can in principle
resolve differently.  Away from such knife-edges the two paths produce
identical cell populations and partitions, which
``tests/test_batch_ingest.py`` enforces on numeric, drifting and Jaccard
streams.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cellstore import nearest_over_slots
from repro.distance.metrics import pairwise_euclidean
from repro.streams.point import StreamPoint

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.edmstream import EDMStream

#: Chunk boundary kinds produced by the trigger scan.
_INIT = "init"
_PERIODIC = "periodic"


def finite_timestamp(timestamp: Any) -> bool:
    """Whether ``timestamp`` is a finite real number."""
    try:
        return math.isfinite(timestamp)
    except (TypeError, OverflowError):  # not a number, or an int beyond float
        return False


def check_timestamps(timestamps: Sequence[Optional[float]], first_row: int = 0) -> None:
    """Reject a timestamp that is not a finite real number; ``None`` passes.

    A NaN would leave ``now`` NaN in one engine and ignored in the other;
    an infinite one would pin ``now`` and decay every cell to nothing.
    Raises ``ValueError`` naming the first offending row, counted from
    ``first_row``.
    """
    for i, timestamp in enumerate(timestamps):
        if timestamp is not None and not finite_timestamp(timestamp):
            raise ValueError(
                f"row {first_row + i} has a timestamp that is not a finite real number: "
                f"{timestamp!r}"
            )


class BatchIngestor:
    """Ingest micro-batches of stream points into an :class:`EDMStream`.

    Parameters
    ----------
    model:
        The model to feed.  The ingestor is a *friend* of the model: it
        manipulates the same stores, reservoir and DP-Tree the sequential
        path does, through the model's own maintenance entry points.
    batch_size:
        Number of points gathered before a micro-batch is flushed.
    """

    def __init__(self, model: "EDMStream", batch_size: int = 256) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.batch_size = batch_size
        #: Cells created with revived sketch density in the current chunk
        #: (bounded-memory mode only); checked for activation at the chunk
        #: boundary.
        self._revived: List[int] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def ingest(self, stream: Iterable[StreamPoint]) -> List[int]:
        """Ingest an iterable of stream points; returns absorbing cell ids."""
        assigned: List[int] = []
        iterator = iter(stream)
        while True:
            batch = list(islice(iterator, self.batch_size))
            if not batch:
                return assigned
            assigned.extend(self.ingest_batch(batch, first_row=len(assigned)))

    def ingest_batch(self, points: Sequence[StreamPoint], first_row: int = 0) -> List[int]:
        """Ingest one micro-batch; returns the absorbing cell id per point.

        Batches are checked against the input contract before any state
        changes: a timestamp that is not a finite real number, or (numeric
        batches) a row with a non-finite value or the wrong dimension,
        rejects the whole batch with a ``ValueError`` naming the row
        (counted from ``first_row``).
        """
        if not points:
            return []
        model = self.model
        if model._numeric:
            # One C-level conversion and check for the whole batch; cells
            # created from these rows get the same tuple-of-floats seeds the
            # sequential path builds via ``_prepare``.
            values: Any = model._cells.check_rows([point.values for point in points], first_row)
        else:
            values = [point.values for point in points]
        times = self._timeline(points, first_row)
        obs = model.obs
        obs.counter("ingest_points_total").inc(len(points))
        obs.counter("ingest_batches_total").inc()
        if not model._started:
            first = points[0].timestamp
            model._start_clock(float(times[0] if first is None else first))

        assigned: List[int] = [0] * len(points)
        start = 0
        for end, kind in self._chunk_plan(times):
            self._process_chunk(values, times, start, end, assigned)
            now = float(times[end])
            if kind == _INIT:
                model._initialize(now)
            elif model._initialized:
                model._periodic_work(now)
            start = end + 1

        model._epoch += 1  # invalidate published snapshots (serving side)
        return assigned

    # ------------------------------------------------------------------ #
    # timeline and chunk planning
    # ------------------------------------------------------------------ #
    def _timeline(self, points: Sequence[StreamPoint], first_row: int) -> np.ndarray:
        """Per-point observation times (running max, as ``learn_one`` sees).

        Raises ``ValueError`` for a timestamp that is not a finite real
        number; see :func:`check_timestamps`.
        """
        model = self.model
        now = model._now
        raw = [point.timestamp for point in points]
        if None not in raw:
            times = np.asarray(raw)
            # Strings would convert to float: only numeric dtypes skip the
            # per-row check.  Real numbers held as objects (Fraction) pass it.
            if times.dtype.kind not in "biuf" or not np.isfinite(times).all():
                check_timestamps(raw, first_row)
                times = np.asarray(raw, dtype=float)
            times = times.astype(float, copy=False)
            if times[0] <= now or np.any(np.diff(times) < 0.0):
                np.maximum.accumulate(np.maximum(times, now), out=times)
            return times
        check_timestamps(raw, first_row)
        n_points = model._n_points
        rate = model.config.stream_rate
        times = np.empty(len(points), dtype=float)
        for i, timestamp in enumerate(raw):
            if timestamp is None:
                timestamp = now + 1.0 / rate if n_points else 0.0
            if timestamp > now:
                now = timestamp
            times[i] = now
            n_points += 1
        return times

    def _chunk_plan(self, times: np.ndarray) -> List[Tuple[int, Optional[str]]]:
        """Split the batch where the sequential path would run boundary work.

        Returns ``(last_index, kind)`` pairs; ``kind`` is ``"init"`` when the
        initialisation threshold is reached at that point, ``"periodic"``
        when any maintenance / τ / snapshot trigger fires there, and ``None``
        for the trailing batch remainder.  The scan mirrors the trigger
        bookkeeping of ``learn_one`` so chunk boundaries land on exactly the
        points where the sequential path acts.
        """
        model = self.model
        config = model.config
        n_points = model._n_points
        initialized = model._initialized
        last_maintenance = model._last_maintenance
        last_tau = model._last_tau_opt
        last_snapshot = model._last_snapshot
        last_time = float(times[-1])
        if initialized and (
            last_time - last_maintenance < config.maintenance_interval
            and (not config.adaptive_tau or last_time - last_tau < config.tau_reoptimize_interval)
            and last_time - last_snapshot < config.snapshot_interval
        ):
            # Fast path: no trigger can fire anywhere in this batch.
            return [(times.shape[0] - 1, None)]
        plan: List[Tuple[int, Optional[str]]] = []
        for i in range(times.shape[0]):
            t = float(times[i])
            n_points += 1
            if not initialized:
                if n_points >= config.init_size:
                    plan.append((i, _INIT))
                    initialized = True
                    last_maintenance = last_tau = last_snapshot = t
                continue
            fired = False
            if t - last_maintenance >= config.maintenance_interval:
                last_maintenance = t
                fired = True
            if config.adaptive_tau and t - last_tau >= config.tau_reoptimize_interval:
                last_tau = t
                fired = True
            if t - last_snapshot >= config.snapshot_interval:
                last_snapshot = t
                fired = True
            if fired:
                plan.append((i, _PERIODIC))
        if not plan or plan[-1][0] != times.shape[0] - 1:
            plan.append((times.shape[0] - 1, None))
        return plan

    # ------------------------------------------------------------------ #
    # one chunk: assignment, absorption, activation, dependency repair
    # ------------------------------------------------------------------ #
    def _process_chunk(
        self,
        values: Any,
        times: np.ndarray,
        start: int,
        end: int,
        assigned: List[int],
    ) -> None:
        model = self.model
        chunk_values = values[start : end + 1]
        chunk_times = times[start : end + 1]
        model._n_points += len(chunk_values)
        model._now = float(chunk_times[-1])

        if model._bounded is not None:
            # Evict ahead of the chunk's worst-case allocation (every point
            # seeding a cell) so store membership never changes between the
            # assignment scan and the absorption pass.
            model._bounded.ensure_headroom(len(chunk_values), float(chunk_times[0]))
        self._revived.clear()

        obs = model.obs
        with obs.phase("assign"):
            groups = self._assign_chunk(chunk_values, chunk_times, start, assigned)
        with obs.phase("absorb"):
            dirty = self._apply_absorptions(groups, chunk_times)

        if self._revived and model._initialized:
            # Revived cells can come back above the active threshold without
            # absorbing another point; the sequential path activates them at
            # creation, the batch path at its usual chunk boundary.
            threshold = model._threshold_key(float(chunk_times[-1]))
            arena = model._cells
            for cell_id in self._revived:
                if cell_id not in model.reservoir:
                    continue  # already activated by an absorption crossing
                if arena.key[arena.slot_of(cell_id)] >= threshold:
                    model._activate_cell(cell_id)

        if model._initialized and dirty:
            # The dirty cells are the only possible new entrants to any
            # higher-density set since the last boundary (see point 3 of
            # the module docstring), so one relink reaches the fixed point.
            with obs.phase("dependency"):
                tree = model.tree
                positions = np.fromiter(map(tree.position_of, dirty), np.int64, len(dirty))
                tree.relink(positions, model._filter_stats)

    def _assign_chunk(
        self,
        chunk_values: Any,
        chunk_times: np.ndarray,
        offset: int,
        assigned: List[int],
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Nearest-seed assignment for one chunk, creating its new cells.

        Returns the absorbed points grouped by absorbing cell as
        ``(group_ids, starts, counts, order)`` arrays — ``order`` holds
        chunk-local point indices sorted by absorbing cell (ascending within
        each group), ``starts``/``counts`` delimit the groups — or ``None``
        when no point was absorbed.

        A numeric row byte-equal (in the arena dtype) to the row just before
        it repeats that row's assignment: only the head of each run of
        repeats goes through :meth:`_assign_numeric`.  This is exact.
        Inside a chunk the seed set changes only by the chunk's own
        creations (periodic work and eviction happen at chunk boundaries),
        and no row lies between two adjacent copies, so nothing is created
        between them: the copy's nearest seed within ``r`` is the head's
        absorber — the cell the head seeded, at distance 0, when the head
        led.  Copies that are not adjacent are assigned separately, because
        a leader created between them can be nearer to the second one.
        The byte test is conservative: ``-0.0`` and ``0.0`` are not merged.
        """
        model = self.model
        if model._numeric:
            queries = np.ascontiguousarray(chunk_values, dtype=model._cells.seed_dtype)
            # One opaque value per row (none at all for 0-d rows).
            rows = queries.view(f"V{queries.strides[0]}").reshape(-1)
            repeats = rows[1:] == rows[:-1]
            n_repeats = np.count_nonzero(repeats)
            if not n_repeats:
                absorber, created = self._assign_numeric(queries, chunk_values, chunk_times)
            else:
                model.obs.counter("ingest_rows_repeated_total").inc(n_repeats)
                fresh = np.concatenate(([True], ~repeats))
                heads = np.flatnonzero(fresh)
                absorber, head_created = self._assign_numeric(
                    queries[heads], chunk_values[heads], chunk_times[heads]
                )
                absorber = absorber[np.cumsum(fresh) - 1]
                created = np.zeros(len(queries), dtype=bool)
                created[heads] = head_created
        else:
            absorber, created = self._assign_objects(chunk_values, chunk_times)
        size = absorber.shape[0]
        assigned[offset : offset + size] = absorber.tolist()
        # Group the absorbed points by absorbing cell with one stable sort;
        # within each group the chunk-local indices stay ascending (arrival
        # order), which the trajectory/threshold logic downstream relies on.
        if created.any():
            points = np.flatnonzero(~created)
            if points.size == 0:
                return None
            order = points[np.argsort(absorber[points], kind="stable")]
        else:
            order = np.argsort(absorber, kind="stable")
        gids = absorber[order]
        starts = np.concatenate(([0], np.flatnonzero(gids[1:] != gids[:-1]) + 1))
        counts = np.diff(np.append(starts, order.size))
        return gids[starts], starts, counts, order

    def _assign_numeric(
        self, queries: np.ndarray, chunk_values: np.ndarray, chunk_times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Absorbing cell per point of a numeric chunk, and which points seed one.

        ``queries`` are the rows of ``chunk_values`` in the arena dtype.

        One screened scan over both populations finds each point's nearest
        old seed within ``r`` (:func:`~repro.core.cellstore.nearest_over_slots`
        with ``exact=False``: a row the Gram screen decides comes back with
        its id but no distance).  The points outside every old cell then
        pick the chunk's *leaders* — the points that seed a new cell — in
        arrival order from one distance block, and the leaders become cells
        with one :meth:`~repro.core.soa.CellArrays.create_many` call.  Every
        distance is measured on the arena-dtype rows, as the per-point path
        measures a point against stored seeds.
        """
        model = self.model
        radius = model.config.radius
        arena = model._cells
        obs = model.obs
        size = chunk_values.shape[0]
        absorber = np.empty(size, dtype=np.int64)
        created = np.zeros(size, dtype=bool)
        store_best = None
        with obs.phase("assign_scan"):
            slots = np.concatenate((model._active.slots(), model._inactive.slots()))
            if slots.size:
                ids = np.concatenate((model._active.ids_array(), model._inactive.ids_array()))
                store_best, store_best_id = nearest_over_slots(
                    arena,
                    slots,
                    ids,
                    queries,
                    within=radius,
                    prune_threshold=model._active.prune_threshold,
                    exact=False,
                )
        if store_best is None:
            candidates = np.arange(size)
        else:
            # Compared in float64, as the per-point path compares; a NaN
            # (decided within r) is not outside.
            store_best = store_best.astype(np.float64, copy=False)
            candidates = np.flatnonzero(store_best > radius)
            absorber[:] = store_best_id
        if candidates.size == 0:
            return absorber, created

        with obs.phase("assign_create"):
            first = int(candidates[0])
            # Candidate -> row distances for every row from the first
            # candidate on; the one kernel call of the creation block.
            block = pairwise_euclidean(queries[candidates], queries[first:])
            block = block.astype(np.float64, copy=False)
            # Leaders in arrival order: a candidate seeds a cell unless an
            # earlier leader lies within r.  ``within[i, j]``: candidate j
            # lies within r of candidate i (the diagonal always holds).  A
            # candidate with no earlier candidate within r leads outright;
            # the greedy pass visits only the pairs i < j within r, in row
            # order, so whether i leads is settled (by pairs k < i) before
            # it is read.
            within = block[:, candidates - first] <= radius
            leaders: Any = slice(None)
            if np.count_nonzero(within) > candidates.size:
                earlier, later = np.nonzero(within)
                pairs = earlier < later
                lead = [True] * candidates.size
                for i, j in zip(earlier[pairs].tolist(), later[pairs].tolist()):
                    if lead[i]:
                        lead[j] = False
                leaders = np.flatnonzero(lead)
            rows = candidates[leaders]
            times = chunk_times[rows]
            key = arena.arrival_key(times)
            bounded = model._bounded
            if bounded is not None:
                revived = np.asarray(
                    [
                        bounded.revival_density(tuple(chunk_values[j].tolist()), float(t))
                        for j, t in zip(rows.tolist(), times.tolist())
                    ]
                )
                key = key + np.asarray([math.log(1.0 + extra) for extra in revived.tolist()])
            new_ids = arena.create_many(
                chunk_values[rows], key=key, created_at=times, last_absorb=times
            )
            obs.counter("cells_created_total").inc(new_ids.size)
            if bounded is not None:
                self._revived.extend(new_ids[revived > 0.0].tolist())
            model.reservoir.add_many(new_ids)
            absorber[rows] = new_ids
            created[rows] = True

            # A row some earlier leader lies within r of, and that did not
            # lead, goes to its nearest earlier leader; no other row can.
            # argmin takes the first minimum: the earliest leader, which has
            # the smallest id, as the per-point path's tie rule wants.
            reach = block[leaders]
            later = rows[:, None] < np.arange(first, size)[None, :]
            columns = np.flatnonzero(((reach <= radius) & later).any(axis=0) & ~created[first:])
            if columns.size == 0:
                return absorber, created
            fresh = np.where(later[:, columns], reach[:, columns], np.inf)
            nearest = np.argmin(fresh, axis=0)
            fresh_best = fresh[nearest, np.arange(columns.size)]
            points = first + columns
            if store_best is not None:
                # A row within r of an old seed as well goes to the leader
                # only when it is strictly nearer (an exact tie keeps the old,
                # smaller id).  Only these rows need their scan distance, and
                # a screened row gets it here from the exact kernel.
                both = np.flatnonzero(~(store_best[points] > radius))
                if both.size:
                    old = store_best[points[both]]
                    unknown = np.flatnonzero(np.isnan(old))
                    if unknown.size:
                        seed_slots = [
                            arena.slot_of(cell_id)
                            for cell_id in store_best_id[points[both[unknown]]].tolist()
                        ]
                        exact = pairwise_euclidean(
                            queries[points[both[unknown]]], arena.seeds[seed_slots]
                        )
                        old[unknown] = np.diagonal(exact)
                    take = np.ones(columns.size, dtype=bool)
                    take[both] = fresh_best[both] < old
                    points, nearest = points[take], nearest[take]
            absorber[points] = new_ids[nearest]
        return absorber, created

    def _assign_objects(
        self, chunk_values: Sequence[Any], chunk_times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Absorbing cell per point of a non-numeric chunk, and which points seed one.

        Both stores answer through :meth:`CellStore.nearest_many`; points
        outside every old cell then replay, in arrival order, against the
        cells created earlier in the chunk.
        """
        model = self.model
        radius = model.config.radius
        metric = model._metric
        size = len(chunk_values)
        active_best, active_best_id = model._active.nearest_many(chunk_values, within=radius)
        inactive_best, inactive_best_id = model._inactive.nearest_many(chunk_values, within=radius)
        # Canonical combine of the two stores, vectorised across the chunk.
        if active_best is None:
            store_best, store_best_id = inactive_best, inactive_best_id
        elif inactive_best is None:
            store_best, store_best_id = active_best, active_best_id
        else:
            take = (inactive_best < active_best) | (
                (inactive_best == active_best) & (inactive_best_id < active_best_id)
            )
            store_best = np.where(take, inactive_best, active_best)
            store_best_id = np.where(take, inactive_best_id, active_best_id)

        absorber = np.empty(size, dtype=np.int64)
        created = np.zeros(size, dtype=bool)
        # Up to the first point that seeds a new cell, assignments depend
        # only on the pre-chunk stores.
        if store_best is None:
            first_create = 0
        else:
            outside = store_best > radius
            first_create = int(np.argmax(outside)) if outside.any() else size
        if first_create:
            absorber[:first_create] = store_best_id[:first_create]
        # Nearest chunk-created seed per point; strictly-smaller updates keep
        # the earliest-created (smallest-id) seed on exact ties, and since
        # chunk-created cells carry the largest ids overall, a tie against a
        # pre-existing seed also resolves canonically.
        fresh_best = np.full(size, math.inf)
        fresh_id = np.zeros(size, dtype=np.int64)
        for j in range(first_create, size):
            value = chunk_values[j]
            best_id: Optional[int] = None
            best_distance = math.inf
            if store_best is not None:
                best_id = int(store_best_id[j])
                best_distance = float(store_best[j])
            if fresh_best[j] < best_distance:
                best_id = int(fresh_id[j])
                best_distance = float(fresh_best[j])

            if best_id is not None and best_distance <= radius:
                absorber[j] = best_id
                continue

            now = float(chunk_times[j])
            cell_id = model._cells.create(
                value, key=model._cells.arrival_key(now), created_at=now, last_absorb=now
            )
            model.reservoir.add(cell_id)
            model.obs.counter("cells_created_total").inc()
            absorber[j] = cell_id
            created[j] = True
            if j + 1 >= size:
                continue
            distances = np.asarray(
                [metric(chunk_values[i], value) for i in range(j + 1, size)],
                dtype=float,
            )
            better = distances < fresh_best[j + 1 :]
            fresh_best[j + 1 :][better] = distances[better]
            fresh_id[j + 1 :][better] = cell_id
        return absorber, created

    def _apply_absorptions(
        self,
        groups: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        chunk_times: np.ndarray,
    ) -> List[int]:
        """Apply per-(cell, chunk) key updates; returns the dirty cells.

        ``groups`` is the grouped-absorption output of :meth:`_assign_chunk`.
        Dirty cells are the active absorbers plus the inactive cells whose
        key trajectory crossed the activation threshold inside the chunk
        (activated here, in crossing order, mirroring the sequential path's
        emergence handling).
        """
        model = self.model
        arena = model._cells
        tree = model.tree
        initialized = model._initialized
        if groups is None:
            return []
        # The key writes below move many DP-Tree entries at once; the next
        # per-point absorb rebuilds the order from the arena instead.
        tree.drop_density_order()

        # One row per absorbing cell, gathered straight from the arena
        # columns; everything below is whole-array arithmetic over these.
        group_ids, starts, counts, order = groups
        n = group_ids.shape[0]
        id_list = group_ids.tolist()
        slot_map = arena._slot_of
        slots = np.fromiter((slot_map[cid] for cid in id_list), dtype=np.int64, count=n)
        in_tree = np.fromiter((cid in tree for cid in id_list), dtype=bool, count=n)
        ends = starts + counts - 1
        arrivals = chunk_times[order]
        fresh = arena.arrival_key(arrivals)
        old = arena.key[slots]
        crossings: Dict[int, int] = {}

        # Batched Equation 8 for every group at once: the key of the group's
        # arrivals (the last, the largest, plus log1p of the others' shares
        # of it, none above 1, so nothing overflows), then one logaddexp
        # with the old key.  A single-point group's arrivals are its one
        # arrival key, so it takes exactly ``learn_one``'s step
        # (:func:`~repro.core.decay.log_add` rounds as ``np.logaddexp``).
        latest = fresh[ends]
        shares = np.exp(fresh - np.repeat(latest, counts))
        shares[ends] = 0.0
        keys = np.logaddexp(old, latest + np.log1p(np.add.reduceat(shares, starts)))

        if initialized:
            # Inactive absorbers: the first point at which the key reaches
            # the activation threshold.  A single-point group has its new
            # key to compare; a longer group runs a logaddexp over its own
            # arrivals, so every step is the per-point step and no idle gap
            # inside the chunk underflows the early points.
            limits = model._threshold_keys(arrivals)
            watch = np.flatnonzero(~in_tree & (counts == 1))
            over = keys[watch] >= limits[starts[watch]]
            for r in watch[over].tolist():
                crossings[id_list[r]] = int(order[starts[r]])
            for r in np.flatnonzero(~in_tree & (counts > 1)).tolist():
                first, last = int(starts[r]), int(ends[r]) + 1
                path = np.logaddexp.accumulate(np.concatenate(([old[r]], fresh[first:last])))
                crossed = np.flatnonzero(path[1:] >= limits[first:last])
                if crossed.size:
                    crossings[id_list[r]] = int(order[first + crossed[0]])

        arena.key[slots] = keys
        arena.last_absorb[slots] = chunk_times[order[ends]]
        arena.points_absorbed[slots] += counts

        dirty = [cid for cid, flag in zip(id_list, in_tree) if flag]
        to_activate = sorted((crossing, cid) for cid, crossing in crossings.items())
        for _, cell_id in to_activate:
            tree.add(model.reservoir.remove(cell_id))
            dirty.append(cell_id)
        return dirty
