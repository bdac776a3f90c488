"""The EDMStream online clustering algorithm (Section 4).

EDMStream summarises the stream into cluster-cells, keeps the dense
("active") cells in a DP-Tree whose weak links (dependent distance > τ)
separate the density mountains, caches sparse ("inactive") cells in an
outlier reservoir, and tracks cluster evolution by observing how the
MSDSubTree partition changes over time.

The per-point work is:

1. *Assignment* — the point is absorbed by the nearest cell whose seed is
   within the radius ``r``; otherwise it seeds a new inactive cell.
2. *Density update* — the absorbing cell's timely density is decayed to the
   current time and incremented (Equation 8), as one ``logaddexp`` on its
   density key (:class:`~repro.core.soa.CellArrays`): keys order the cells
   as their densities do at any common time, so every density decision —
   dominance, activation, deactivation — compares keys, and a density is
   computed only to be shown (snapshots, :meth:`EDMStream.decision_graph`)
   or folded into the sketch tier.
3. *Activation* — an inactive cell whose density reaches the active
   threshold is inserted into the DP-Tree.
4. *Dependency update* — the absorbing cell's own dependency is refreshed
   when the absorber now dominates it, and the other active cells are
   re-examined, with the Theorem 1 / Theorem 2 filters skipping the vast
   majority of candidates.  Theorem 1's survivors, the cells the absorber
   newly dominates, come from a band of the DP-Tree's density-key order
   (two bisects, :meth:`DPTree.theorem_one
   <repro.core.dptree.DPTree.theorem_one>`), not from a mask over every
   active cell.
5. *Maintenance* (periodic) — decayed cells move to the outlier reservoir,
   outdated reservoir cells are deleted (Theorem 3), τ is re-optimised
   (Section 5) and an evolution snapshot is taken.

Every link the ingest path writes, except those of the Theorem 1/2
filtered pass, comes from :meth:`DPTree.relink
<repro.core.dptree.DPTree.relink>`: the own-link refresh of step 4, an
activation in step 3, the initial DP-Tree and the cells a decay sweep
orphans.  The ``dependency`` telemetry phase times steps 3 and 4 and the
sweep's relink, which is what Figure 11 reports; in :meth:`EDMStream.learn_one`
the ``assign`` phase times step 1 (the nearest-seed scan, and a new
cell's creation) and ``absorb`` the Equation 8 write of step 2.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api import ClusterSnapshot, ServingView, StreamClusterer, as_stream_points
from repro.core.adaptive_tau import TauOptimizer, suggest_initial_tau
from repro.core.batch import BatchIngestor, check_timestamps, finite_timestamp
from repro.core.config import EDMStreamConfig
from repro.core.decay import DecayModel, log_add
from repro.core.dptree import DPTree, dominates, lex_improves
from repro.core.evolution import EvolutionTracker
from repro.core.filters import FilterStatistics
from repro.core.reservoir import OutlierReservoir
from repro.core.soa import CellArrays
from repro.distance import get_metric
from repro.distance.metrics import pairwise_euclidean
from repro.obs.timing import NULL_TELEMETRY, NullTelemetry, Telemetry


class EDMStream(StreamClusterer):
    """Online density-mountain stream clustering.

    Implements the :class:`~repro.api.StreamClusterer` protocol: ingestion
    through :meth:`learn_one` / :meth:`learn_many`, serving through
    immutable :class:`~repro.api.ClusterSnapshot` views published at batch
    boundaries and on :meth:`request_clustering` (queries never walk the
    live DP-Tree).

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.EDMStreamConfig`; ``None`` uses the
        defaults (which match the paper's parameter choices).
    **overrides:
        Convenience keyword overrides applied on top of ``config``
        (e.g. ``EDMStream(radius=0.5, beta=0.001)``).
    """

    name = "EDMStream"

    def __init__(self, config: Optional[EDMStreamConfig] = None, **overrides: Any) -> None:
        if config is None:
            config = EDMStreamConfig(**overrides)
        elif overrides:
            params = {**config.__dict__, **overrides}
            config = EDMStreamConfig(**params)
        self.config = config
        self.decay = DecayModel(a=config.decay_a, lam=config.decay_lambda)
        self.evolution = EvolutionTracker()
        self.tau_optimizer = TauOptimizer(alpha=config.alpha)
        self._filter_stats = FilterStatistics()

        # Telemetry (repro.obs).  Off by default: the null facade makes
        # every instrumentation point a no-op and the clustering path is
        # bit-identical to an un-instrumented build — telemetry only
        # observes, it never steers (enforced by tests/test_obs.py).
        if config.telemetry is None or config.telemetry is False:
            self.obs = NULL_TELEMETRY
        elif config.telemetry is True:
            self.obs = Telemetry()
        else:
            self.obs = config.telemetry

        self._numeric = config.metric not in ("jaccard",)
        self._metric = get_metric(config.metric)
        # One structure-of-arrays arena holds every cell the model owns.
        # The DP-Tree is the active population and the outlier reservoir
        # the inactive one, both views over it, so activation and
        # deactivation move positions, never cell state.  ``_active`` and
        # ``_inactive`` name the same two objects.
        self._cells = CellArrays(
            numeric=self._numeric,
            dtype=np.float32 if config.dtype == "float32" else np.float64,
            log_rate=self.decay.log_rate,
        )
        self.tree = DPTree(numeric=self._numeric, metric=self._metric, arrays=self._cells)
        self.reservoir = OutlierReservoir(
            decay=self.decay,
            beta=config.beta,
            stream_rate=config.stream_rate,
            delete_outdated=config.delete_outdated,
            numeric=self._numeric,
            metric=self._metric,
            arrays=self._cells,
        )
        self._active = self.tree
        self._inactive = self.reservoir
        # The per-point scan's view of both populations (see `_members`).
        self._union_key: Optional[Tuple[int, int]] = None

        # Bounded-memory tier (docs/ARCHITECTURE.md "Bounded-memory tier").
        # Constructed only when a cap is configured, so the default build
        # takes none of these code paths and stays bit-identical.
        self._bounded: Optional[Any] = None
        if config.memory_cap_bytes is not None:
            if not self._numeric:
                raise ValueError(
                    "memory_cap_bytes requires a numeric metric (grid keys "
                    f"quantise seed coordinates); metric={config.metric!r}"
                )
            from repro.sketch import BoundedCellStore, SketchTier

            tier = SketchTier.auto_sized(
                decay=self.decay,
                radius=config.radius,
                memory_cap_bytes=config.memory_cap_bytes,
            )
            self._bounded = BoundedCellStore(
                arena=self._cells,
                active=self._active,
                inactive=self._inactive,
                tier=tier,
                memory_cap_bytes=config.memory_cap_bytes,
            )
            self._bounded.obs = self.obs

        self._tau: Optional[float] = config.tau
        self._now: float = 0.0
        self._started = False
        self._n_points = 0
        self._initialized = False
        self._last_maintenance = 0.0
        self._last_snapshot = 0.0
        self._last_tau_opt = 0.0

        # Serving side: published snapshots are rebuilt only when the live
        # state has mutated since the last publication (epoch counter).
        self._epoch = 0
        self._published_epoch = -1
        self._latest_snapshot: Optional[ClusterSnapshot] = None

        #: History of (time, reservoir size) samples, one per maintenance sweep.
        self.reservoir_size_history: List[Tuple[float, int]] = []
        #: History of (time, tau) values after each re-optimisation.
        self.tau_history: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------ #
    # public properties
    # ------------------------------------------------------------------ #
    @property
    def obs(self) -> Union[Telemetry, NullTelemetry]:
        """The telemetry facade (:data:`~repro.obs.timing.NULL_TELEMETRY` when off)."""
        return self._obs

    @obs.setter
    def obs(self, telemetry: Union[Telemetry, NullTelemetry]) -> None:
        """Swap the telemetry facade; :meth:`learn_one` counts and times through the new one."""
        self._obs = telemetry
        self._obs_points = telemetry.counter("ingest_points_total")
        self._obs_created = telemetry.counter("cells_created_total")
        self._obs_assign = telemetry.phase("assign")
        self._obs_absorb = telemetry.phase("absorb")
        self._obs_dependency = telemetry.phase("dependency")

    @property
    def tau(self) -> Optional[float]:
        """Current cluster-separation threshold τ (None before initialisation)."""
        return self._tau

    @property
    def alpha(self) -> Optional[float]:
        """Learned balance parameter α of the τ objective."""
        return self.tau_optimizer.alpha

    @property
    def now(self) -> float:
        """Latest stream timestamp seen."""
        return self._now

    @property
    def n_points(self) -> int:
        """Number of points ingested."""
        return self._n_points

    @property
    def n_active_cells(self) -> int:
        """Number of cluster-cells currently in the DP-Tree."""
        return len(self.tree)

    @property
    def n_inactive_cells(self) -> int:
        """Number of cluster-cells currently in the outlier reservoir."""
        return len(self.reservoir)

    @property
    def n_clusters(self) -> int:
        """Number of MSDSubTrees under the current τ."""
        if self._tau is None or len(self.tree) == 0:
            return 0
        return self.tree.num_clusters(self._tau)

    @property
    def filter_stats(self) -> FilterStatistics:
        """Counters of filtered / performed dependency updates."""
        return self._filter_stats

    @property
    def initialized(self) -> bool:
        """Whether the initial DP-Tree has been built."""
        return self._initialized

    @property
    def outlier_label(self) -> int:
        """Label returned by the query surface for uncovered points."""
        return self.config.outlier_label

    # ------------------------------------------------------------------ #
    # thresholds
    # ------------------------------------------------------------------ #
    def active_threshold(self, now: Optional[float] = None) -> float:
        """Density threshold separating active from inactive cells.

        Asymptotically this is the paper's ``β·v / (1 - a^λ)``.  Before the
        stream has run long enough for the total freshness to reach its
        steady state, the threshold is scaled by the fraction of the steady
        state actually attainable — otherwise nothing could be active during
        the first seconds of the stream (Figure 7 shows clusters from t = 1 s
        onwards).  The threshold never drops below 1 so that a brand-new cell
        (density exactly 1) is always inactive, as required in Section 4.3.
        """
        if now is None:
            now = self._now
        steady = self.decay.active_threshold(self.config.beta, self.config.stream_rate)
        if self._start_time is None:
            return max(1.0, steady)
        elapsed = max(0.0, now - self._start_time)
        warmup_fraction = 1.0 - self.decay.decay_factor(elapsed)
        return max(1.0 + 1e-12, steady * warmup_fraction)

    def _threshold_keys(self, times: np.ndarray) -> np.ndarray:
        """The keys a density at :meth:`active_threshold` has at each of ``times``.

        The one formula behind every activation and deactivation decision
        of both engines: Python's ``**`` and ``math.log`` can differ from
        numpy's in the last bit, so a threshold computed any other way
        could decide a knife-edge crossing differently.
        """
        decay = self.decay
        steady = decay.active_threshold(self.config.beta, self.config.stream_rate)
        warmup = 1.0 - decay.a ** (decay.lam * np.maximum(0.0, times - self._start_time))
        threshold = np.maximum(1.0 + 1e-12, steady * warmup)
        return np.log(threshold) + self._cells.arrival_key(times)

    def _threshold_key(self, now: float) -> float:
        """:meth:`_threshold_keys` at one time."""
        return float(self._threshold_keys(np.array([now]))[0])

    @property
    def _start_time(self) -> Optional[float]:
        """The stream's start time (``None`` before the first point).

        It is t₀ of the density keys, held once, as the arena's origin.
        """
        return self._cells.origin if self._started else None

    def _start_clock(self, time: float) -> None:
        """Fix the stream's start time, which is also t₀ of the density keys."""
        self._cells.origin = time
        self._started = True

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def learn_one(
        self, values: Any, timestamp: Optional[float] = None, label: Optional[int] = None
    ) -> int:
        """Ingest one point; returns the id of the cell that absorbed it.

        ``label`` is accepted for the :class:`~repro.api.StreamClusterer`
        protocol and ignored: EDMStream keeps no per-label state.  A
        ``timestamp`` of ``None`` means the next arrival at the stream rate;
        one that is not a finite real number raises ``ValueError`` before any
        state changes.
        """
        point = self._prepare(values)
        if timestamp is None:
            timestamp = self._now + 1.0 / self.config.stream_rate if self._n_points else 0.0
        elif not finite_timestamp(timestamp):
            raise ValueError(f"timestamp is not a finite real number: {timestamp!r}")
        else:
            timestamp = float(timestamp)  # as the batch engine's float64 timeline
        if not self._started:
            self._start_clock(timestamp)
        self._now = max(self._now, timestamp)
        self._n_points += 1
        self._obs_points.inc()

        cell_id = self._assign(point, self._now)

        if not self._initialized:
            if self._n_points >= self.config.init_size:
                self._initialize(self._now)
        else:
            self._periodic_work(self._now)

        self._epoch += 1
        return cell_id

    def learn_many(
        self,
        stream: Iterable[Any],
        batch_size: Optional[int] = 256,
    ) -> List[int]:
        """Ingest an iterable of stream points or raw value vectors.

        Accepts :class:`~repro.streams.point.StreamPoint` instances and raw
        value vectors interchangeably (raw values get auto-assigned arrival
        timestamps), per the :class:`~repro.api.StreamClusterer` protocol.

        By default the stream is processed in micro-batches of ``batch_size``
        points through :class:`~repro.core.batch.BatchIngestor`: assignment is
        one vectorised distance computation per batch, density increments are
        applied once per (cell, batch), and activation checks, dependency
        refreshes and periodic maintenance run at batch boundaries.  The
        result (cell populations, partitions, return value) is identical to
        the sequential path up to the tie-breaking and float-rounding
        caveats documented in :mod:`repro.core.batch`.

        Pass ``batch_size=None`` to force the paper-faithful per-point loop
        over :meth:`learn_one`.

        Either way the call ends by refreshing the published
        :class:`~repro.api.ClusterSnapshot` (a batch-boundary publication,
        O(active cells)), so concurrent readers holding :meth:`snapshot`
        observe at most one call's worth of staleness.
        """
        points = as_stream_points(stream)
        if batch_size is None:
            # The per-point engine checks the input contract 256 rows at a
            # time too, so a bad row rejects its chunk before any of it lands.
            assigned = []
            while chunk := list(islice(points, 256)):
                if self._numeric:
                    self._cells.check_rows([point.values for point in chunk], len(assigned))
                check_timestamps([point.timestamp for point in chunk], len(assigned))
                for point in chunk:
                    assigned.append(
                        self.learn_one(point.values, timestamp=point.timestamp, label=point.label)
                    )
        else:
            assigned = BatchIngestor(self, batch_size=batch_size).ingest(points)
        self.request_clustering()
        return assigned

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def clusters(self) -> Dict[int, List[int]]:
        """Current MSDSubTree partition: cluster root id -> member cell ids."""
        if len(self.tree) == 0:
            return {}
        tau = self._effective_tau()
        return self.tree.clusters(tau)

    def partition_snapshot(self) -> Dict[int, FrozenSet[int]]:
        """Partition with frozen member sets, suitable for evolution tracking."""
        return {root: frozenset(members) for root, members in self.clusters().items()}

    def cluster_label_of_cell(self, cell_id: int) -> int:
        """Cluster root id of a cell, or the outlier label if it is not active."""
        if cell_id not in self.tree:
            return self.config.outlier_label
        tau = self._effective_tau()
        assignment = self.tree.cluster_assignment(tau)
        return assignment.get(cell_id, self.config.outlier_label)

    def request_clustering(self) -> ClusterSnapshot:
        """Publish (or return) the up-to-date :class:`~repro.api.ClusterSnapshot`.

        EDMStream maintains its clustering incrementally, so this costs one
        O(active cells) publication when the live state changed since the
        last call and is free otherwise.  The returned snapshot is immutable
        and versioned; all queries (:meth:`predict_one`,
        :meth:`predict_many`) are served from it.
        """
        if self._latest_snapshot is None or self._published_epoch != self._epoch:
            with self.obs.phase("snapshot_publish"):
                snapshot = self._publish_snapshot()
            self._published_epoch = self._epoch
            if self.obs.enabled:
                self.obs.record_event(
                    "snapshot_publish", time=self._now, version=snapshot.version
                )
            return snapshot
        return self._latest_snapshot

    def _serving_view(self) -> ServingView:
        """Serving state for snapshot publication (see :class:`ServingView`).

        Coverage extends to twice the cell radius: a point can legitimately
        sit in an inactive border cell whose own seed is up to ``r`` away
        from the nearest active seed, so the cluster footprint reaches
        ``2r`` beyond the active seeds (points farther are halos/outliers).
        """
        now = self._now
        view = ServingView(
            time=now,
            n_points=self._n_points,
            tau=self._tau,
            coverage=2.0 * self.config.radius,
            # Set even before the first cell, so a seedless snapshot of a
            # non-numeric model still reads each element as one query.
            metric=None if self._numeric else self._metric,
            metadata={
                "active_cells": self.n_active_cells,
                "inactive_cells": self.n_inactive_cells,
                "alpha": self.alpha,
                "evolution": self.evolution.counts(),
            },
        )
        if self._bounded is not None:
            # Sketch-tier accounting; hot (active) cells in the snapshot
            # stay exact — only the cold tail is approximate.
            view.metadata["memory"] = self._bounded.stats()
        if len(self.tree) == 0:
            return view
        tau = self._effective_tau()
        view.tau = tau
        ids = self._active.ids()
        view.cell_ids = ids
        view.labels = self.tree.cluster_roots(tau)
        view.densities = self._active.densities_at(now)
        if self._numeric:
            view.seeds = self._active.seed_matrix()
        else:
            seed_of = self._cells.seed_of
            view.seed_objects = [seed_of(slot) for slot in self._active.slots().tolist()]
        return view

    def predict_one(self, values: Any) -> int:
        """Cluster label for a point under the current model (no learning).

        Returns the root cell id of the cluster whose nearest active cell
        covers the point (within ``2r``, see :meth:`_serving_view`), or
        ``config.outlier_label``.  Served off the published snapshot — the
        snapshot is rebuilt at most once per mutation epoch, so repeated
        queries between ingestions share one frozen view.
        """
        point = self._prepare(values)
        return int(self.request_clustering().predict_one(point))

    def predict_many(self, points: Sequence[Any]) -> np.ndarray:
        """Vectorised :meth:`predict_one` for a batch of query points.

        One call into the snapshot's blocked query path instead of one
        Python-level scan per point; row ``i`` equals
        ``predict_one(points[i])``.  On snapshots of eight or more
        dimensions one BLAS Gram product per block screens the queries and
        only the rows it cannot decide reach the exact
        :func:`~repro.distance.metrics.pairwise_euclidean` kernel; a row is
        decided only when the exact kernel provably returns the same label,
        so the labels are the exact kernel's bit for bit (see
        :meth:`repro.api.ClusterSnapshot.predict_many`).  Numeric rows are
        checked against the input contract first, like :meth:`predict_one`.
        """
        if not hasattr(points, "__len__"):
            points = list(points)
        if self._numeric:
            points = self._cells.check_rows(points)
        return self.request_clustering().predict_many(points)

    def decision_graph(self) -> List[Tuple[float, float, int]]:
        """(ρ, δ, cell id) triples of the active cells — the decision graph of Fig. 2b."""
        now = self._now
        arrays = self._cells
        graph = [
            (arrays.density_at(slot, now), float(arrays.delta[slot]), cell_id)
            for slot, cell_id in zip(self.tree.slots().tolist(), self.tree.ids())
        ]
        graph.sort(key=lambda item: (-item[0], item[1]))
        return graph

    def summary(self) -> Dict[str, Any]:
        """A snapshot of the main state variables, for logging and reports."""
        summary = {
            "points": self._n_points,
            "time": self._now,
            "active_cells": self.n_active_cells,
            "inactive_cells": self.n_inactive_cells,
            "clusters": self.n_clusters,
            "tau": self._tau,
            "alpha": self.alpha,
            "active_threshold": self.active_threshold(),
            "filter_stats": self._filter_stats.as_dict(),
        }
        if self._bounded is not None:
            summary["memory"] = self._bounded.stats()
        if self.obs.enabled:
            summary["telemetry"] = {
                "phases": self.obs.phase_totals(),
                "event_counts": self.obs.events.counts(),
            }
        return summary

    @property
    def bounded_store(self) -> Optional[Any]:
        """The bounded-memory tier, or ``None`` when no cap is configured."""
        return self._bounded

    def memory_footprint(self) -> Dict[str, int]:
        """Byte accounting of the cell state, by component (see the tier docs).

        Available in both modes: in exact (uncapped) mode the ``sketch``
        component is zero; in bounded mode the total is what the cap is
        enforced against.
        """
        from repro.sketch.bounded import cell_state_footprint

        sketch_bytes = 0 if self._bounded is None else self._bounded.tier.nbytes()
        return cell_state_footprint(
            self._cells, self._active, self._inactive, sketch_bytes=sketch_bytes
        )

    # ------------------------------------------------------------------ #
    # internals: assignment
    # ------------------------------------------------------------------ #
    def _prepare(self, values: Any) -> Any:
        """One input point as the model stores it, checked against the contract.

        Numeric points become tuples of floats; a point that is not a 1-D
        vector of numbers, has a non-finite value or has the wrong dimension
        raises ``ValueError`` (see
        :meth:`CellArrays.check_rows <repro.core.soa.CellArrays.check_rows>`)
        before any state changes.
        """
        if not self._numeric:
            return values
        try:
            point = tuple(map(float, values))
        except TypeError:
            self._cells.check_rows([values])
            raise
        if not all(map(math.isfinite, point)) or self._cells.dim not in (None, len(point)):
            self._cells.check_rows([point])
        return point

    def _effective_tau(self) -> float:
        if self._tau is not None:
            return self._tau
        return suggest_initial_tau(self.tree.link_deltas().tolist())

    def _members(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Slots, ids and (numeric) seeds of active ∪ inactive, active rows first.

        Rebuilt from the stores' cached views only when either store's
        membership changed, so the thousands of absorbs a stable population
        sees share one seed matrix.
        """
        key = (self._active.version, self._inactive.version)
        if self._union_key != key:
            slots = np.concatenate((self._active.slots(), self._inactive.slots()))
            seeds = None
            if self._numeric and self._cells.seeds is not None:
                seeds = np.concatenate((self._active.seed_view(), self._inactive.seed_view()))
            self._union = (slots, self._cells.cell_ids[slots], seeds)
            self._union_key = key
        return self._union

    def _assign(self, point: Any, now: float) -> int:
        """Absorb ``point`` into the nearest cell within ``r``, or seed a new cell.

        One distance vector covers both populations.  Canonical tie-breaking:
        among seeds at exactly the same distance the smallest (i.e.
        earliest-created) cell id wins, whichever store holds it.  Exact ties
        are routine under the Jaccard metric, and an order-free rule is what
        lets the micro-batch path (:mod:`repro.core.batch`) reproduce the
        sequential results point for point.
        """
        with self._obs_assign:
            slots, ids, seeds = self._members()
            if slots.size == 0:
                return self._create_cell(point, now)
            if seeds is not None:
                query = np.asarray(point, dtype=seeds.dtype).reshape(1, -1)
                distances = pairwise_euclidean(query, seeds)[0]
            else:
                distances = np.concatenate(
                    (self._active.distances_to(point), self._inactive.distances_to(point))
                )
            position = int(distances.argmin())
            nearest = distances[position]
            if float(nearest) > self.config.radius:
                return self._create_cell(point, now)
            tied = (distances == nearest).nonzero()[0]
            if tied.size > 1:
                position = int(tied[np.argmin(ids[tied])])
            cell_id = int(ids[position])
            slot = int(slots[position])

        # Equation 8 on the key column; an active absorber's write also
        # moves its DP-Tree density-order entry.
        n_active = len(self._active)
        with self._obs_absorb:
            arrays = self._cells
            key_before = float(arrays.key[slot])
            key_after = log_add(key_before, arrays.arrival_key(now))
            if position < n_active:
                self._active.write_key(cell_id, slot, key_after)
            else:
                arrays.key[slot] = key_after
            arrays.last_absorb[slot] = now
            arrays.points_absorbed[slot] += 1

        if position >= n_active:
            if self._initialized and key_after >= self._threshold_key(now):
                self._activate_cell(cell_id)
        elif self._initialized:
            with self._obs_dependency:
                self._update_dependencies(
                    cell_id, slot, key_before, key_after, distances[:n_active], position
                )
        return cell_id

    def _create_cell(self, point: Any, now: float) -> int:
        density = 1.0
        if self._bounded is not None:
            # Evict before allocating so the arena never doubles past the
            # cap, and revive the neighborhood's sketched density if this
            # point re-enters a region whose cells were evicted.
            self._bounded.ensure_headroom(1, now)
            density += self._bounded.revival_density(point, now)
        key = math.log(density) + self._cells.arrival_key(now)
        cell_id = self._cells.create(point, key=key, created_at=now, last_absorb=now)
        self._obs_created.inc()
        self.reservoir.add(cell_id)
        if self._bounded is not None and self._initialized and key >= self._threshold_key(now):
            # A revived cell can come back above the active threshold; give
            # it back its place in the DP-Tree immediately, mirroring the
            # activation check of an absorbing inactive cell in `_assign`.
            self._activate_cell(cell_id)
        return cell_id

    # ------------------------------------------------------------------ #
    # internals: dependency maintenance
    # ------------------------------------------------------------------ #
    def _update_dependencies(
        self,
        cell_id: int,
        slot: int,
        key_before: float,
        key_after: float,
        point_distances: np.ndarray,
        position: int,
    ) -> None:
        """Dependency update after the active cell at ``position`` absorbed a point.

        The absorber's key went from ``key_before`` to ``key_after``, and
        ``point_distances`` are the point's distances to every active seed
        (array order).  Two steps:

        1. The absorber's own dependency.  If its current dependency still
           dominates it, the set of higher-density cells it
           sees (F) still contains the previous argmin, so δ is unchanged and
           the recomputation is skipped.
        2. The filtered update of Section 4.2 over the other active cells: a
           candidate c needs re-examination only if the absorber newly
           entered c's set of higher-density cells (density filter,
           Theorem 1) and could be closer than c's current dependency
           (triangle-inequality filter, Theorem 2).

        With the density filter on, :meth:`DPTree.theorem_one
        <repro.core.dptree.DPTree.theorem_one>` answers both dominance
        questions from the DP-Tree's density order, and a stale own link is
        refreshed over the dominators it reads off the same order.  With it
        off (Figure 11's ``wf`` variant) every other cell is examined
        against one dominance mask over the key column.
        """
        arrays = self._cells
        active = self._active
        stats = self._filter_stats
        size = len(active)
        dependency = int(arrays.dep[slot])  # -1, no dependency, is in no store
        dominated = None
        if self.config.enable_density_filter:
            kept, dominators = active.theorem_one(cell_id, dependency, key_before)
            if dominators is not None:
                active.relink(np.array([position]), stats, repoint=False, dominators=dominators)
            stats.density_filtered += size - 1 - kept.size
        else:
            ids = active.ids_array()
            # Only cells the absorber now dominates can ever point at it;
            # this is part of the dependency definition (Eq. 7), not an
            # optional filter.
            dominated = dominates(key_after, cell_id, active.keys(), ids)
            if dependency not in active or dominated[active.position_of(dependency)]:
                active.relink(np.array([position]), stats, repoint=False)
            kept = (ids != cell_id).nonzero()[0]
        stats.candidates += size - 1
        if kept.size == 0:
            return
        kept_slots = active.slots()[kept]
        deltas = arrays.delta[kept_slots]
        if self.config.enable_triangle_filter:
            close = np.abs(point_distances[kept] - point_distances[position]) <= deltas
            count = int(np.count_nonzero(close))
            stats.triangle_filtered += kept.size - count
            if count == 0:
                return
            if count < kept.size:
                kept, kept_slots, deltas = kept[close], kept_slots[close], deltas[close]

        # The absorber's seed as the kernel measures it: its arena row (the
        # exact seed in float64, the stored cast in float32).
        seed = arrays.seeds[slot] if self._numeric else arrays.seed_of(slot)
        link_distances = active.distances_to_subset(seed, kept)
        stats.distance_computations += int(kept.size)
        winners = lex_improves(link_distances, cell_id, deltas, arrays.dep[kept_slots])
        if dominated is not None:
            winners &= dominated[kept]
        stats.dependency_changes += int(np.count_nonzero(winners))
        arrays.dep[kept_slots[winners]] = cell_id
        arrays.delta[kept_slots[winners]] = link_distances[winners]

    # ------------------------------------------------------------------ #
    # internals: activation / deactivation
    # ------------------------------------------------------------------ #
    def _activate_cell(self, cell_id: int) -> None:
        """Move a cell from the outlier reservoir into the DP-Tree (emergence)."""
        active = self._active
        active.add(self.reservoir.remove(cell_id))
        with self._obs_dependency:
            active.relink(np.array([active.position_of(cell_id)]), self._filter_stats)

    def _deactivate_cells(self, cell_ids: Sequence[int]) -> None:
        """Move decayed cells from the DP-Tree to the outlier reservoir."""
        removal = set(cell_ids)
        if not removal:
            return
        # Cells whose dependency is being removed but which themselves stay
        # active need a fresh dependency afterwards.  The dependency column
        # of the arena answers this in one vectorised membership test.
        ids = self._active.ids_array()
        deps = self._cells.dep[self._active.slots()]
        removal_ids = np.fromiter(removal, dtype=np.int64, count=len(removal))
        orphan_mask = np.isin(deps, removal_ids) & ~np.isin(ids, removal_ids)
        orphans = ids[orphan_mask].tolist()
        for cell_id in removal:
            self.reservoir.add(self.tree.remove(cell_id))
        if orphans:
            active = self._active
            positions = np.fromiter(map(active.position_of, orphans), np.int64, len(orphans))
            active.relink(positions, self._filter_stats, repoint=False)

    # ------------------------------------------------------------------ #
    # internals: initialisation and periodic work
    # ------------------------------------------------------------------ #
    def _initialize(self, now: float) -> None:
        """Build the initial DP-Tree from the cached cells (Section 4.1)."""
        # Promote in creation (ascending id) order, whatever evictions did
        # to the reservoir's array order.
        ids = self.reservoir.ids_array()
        order = np.argsort(ids)
        cached = ids[order]
        promotable = cached[self.reservoir.keys()[order] >= self._threshold_key(now)]
        if promotable.size < 2:
            # Not enough dense cells yet: promote every cached cell so that a
            # primary clustering exists, mirroring the paper's initialisation
            # over all cached cluster-cells.
            promotable = cached
        for cell_id in promotable.tolist():
            self.tree.add(self.reservoir.remove(cell_id))

        # A link depends only on keys, ids and seeds, so every promoted
        # cell links in one call.
        active = self._active
        active.relink(np.arange(len(active)), self._filter_stats, repoint=False)

        if self._tau is None:
            self._tau = suggest_initial_tau(self.tree.link_deltas().tolist())
        if self.config.adaptive_tau and self.tau_optimizer.alpha is None:
            tau_deltas = self._tau_deltas(now)
            if tau_deltas:
                self.tau_optimizer.learn_alpha(self._tau, tau_deltas)
            else:
                self.tau_optimizer.alpha = 0.5
        self._initialized = True
        self._last_maintenance = now
        self._last_snapshot = now
        self._last_tau_opt = now
        self.tau_history.append((now, self._tau))
        self._record_evolution(self.evolution.observe(now, self.partition_snapshot()))

    def _record_evolution(self, events: List[Any]) -> None:
        """Mirror MONIC evolution transitions into the telemetry event ring."""
        if not events or not self.obs.enabled:
            return
        for event in events:
            self.obs.record_event(
                f"cluster_{event.event_type.value}",
                time=event.time,
                old_clusters=list(event.old_clusters),
                new_clusters=list(event.new_clusters),
            )

    def _periodic_work(self, now: float) -> None:
        if now - self._last_maintenance >= self.config.maintenance_interval:
            with self.obs.phase("maintenance"):
                self._maintenance(now)
            self._last_maintenance = now
        if (
            self.config.adaptive_tau
            and now - self._last_tau_opt >= self.config.tau_reoptimize_interval
        ):
            with self.obs.phase("tau_search"):
                self._reoptimize_tau(now)
            self._last_tau_opt = now
        if now - self._last_snapshot >= self.config.snapshot_interval:
            self._record_evolution(self.evolution.observe(now, self.partition_snapshot()))
            self._last_snapshot = now

    def _maintenance(self, now: float) -> None:
        """Decay sweep: deactivate sparse cells, prune outdated reservoir cells."""
        keys = self._active.keys()
        ids = self._active.ids()
        to_deactivate = [ids[int(i)] for i in np.flatnonzero(keys < self._threshold_key(now))]
        # Never empty the tree completely: keep at least the densest cell so
        # that the clustering remains defined while the stream is sparse
        # (smallest id among exactly tied keys, canonically).
        if to_deactivate and len(to_deactivate) == len(ids):
            top = float(np.max(keys))
            keep = min(ids[int(i)] for i in np.flatnonzero(keys == top))
            to_deactivate = [cid for cid in to_deactivate if cid != keep]
        with self._obs_dependency:
            self._deactivate_cells(to_deactivate)

        self.reservoir.prune_outdated(now)
        if self._bounded is not None:
            self._bounded.enforce(now)
        self.reservoir_size_history.append((now, len(self.reservoir)))

    def _tau_deltas(self, now: float) -> List[float]:
        """Dependent distances used by the τ objective.

        DP-Tree roots have δ = inf, which would make "one single cluster"
        unrepresentable in the objective (the inter set could never be empty
        of real links).  Following the original DP paper — where the global
        density peak is assigned the maximum distance as its δ — each root
        contributes the distance to the farthest active seed instead.
        """
        slots = self._active.slots()
        if slots.size == 0:
            return []
        deltas = self.tree.link_deltas().tolist()
        dep = self._cells.dep[slots]
        ids = self._active.ids_array()
        roots = np.flatnonzero((dep == -1) | ~np.isin(dep, ids))
        if roots.size and slots.size > 1:
            deltas.extend(self._active.cross_distances(roots).max(axis=1).tolist())
        return deltas

    def _reoptimize_tau(self, now: float) -> None:
        if self.tau_optimizer.alpha is None:
            return
        deltas = self._tau_deltas(now)
        if len(deltas) < 2:
            return
        self._tau = self.tau_optimizer.optimize(deltas, time=now, fallback=self._tau)
        self.tau_history.append((now, self._tau))
