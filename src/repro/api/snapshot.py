"""Immutable, versioned serving views of a stream clustering.

The ingest/serve split: the *online* side of a stream clusterer mutates live
state on every arriving point, while the *serving* side answers
"which cluster is this point in?" for potentially millions of concurrent
readers.  Walking the live structures for every query couples the two sides
— a reader can observe a half-updated partition, and every query pays the
bookkeeping cost of the writer's data structures.

:class:`ClusterSnapshot` decouples them.  A snapshot is a frozen,
monotonically-versioned copy of exactly the state needed to serve queries:

* the **seed matrix** — one row per summary (cluster-cell seed,
  micro-cluster centre, CF-entry centroid, …),
* the **label array** — the macro-cluster label of each summary,
* the **densities** and the separation threshold **τ** in force when the
  snapshot was taken, and
* **stable cluster ids** — serving-side identifiers that survive across
  snapshot versions as long as the underlying cluster survives (matched by
  member overlap, the same MONIC-style rule
  :class:`repro.core.evolution.EvolutionTracker` uses for its
  survive/split/merge events).

Queries (:meth:`ClusterSnapshot.predict_one` /
:meth:`~ClusterSnapshot.predict_many`) run entirely off the snapshot — no
lock on the live model, stale-but-consistent by construction.  Their labels
are those of the shared :func:`repro.distance.metrics.pairwise_euclidean`
kernel: nearest seed (the first in array order on exact distance ties),
then coverage.  From eight dimensions on, one BLAS Gram product per query
block screens the queries first and decides each row whose label it can
prove, with an error bound, to be the exact kernel's; only the undecided
rows (near-ties, the coverage boundary, non-finite or extreme rows) reach
the exact kernel, so the labels stay those of the exact kernel bit for
bit.  Grid-based
algorithms (D-Stream, MR-Stream), whose serving state is a labelled grid
rather than a seed set, use the :class:`GridSpec` mode instead; everything
else (versioning, stable ids, immutability) is identical.

:class:`SnapshotPublisher` owns the version counter and the stable-id
registry for one clusterer; :class:`ServingView` is the small mutable
builder an algorithm fills in to describe its current serving state.
"""

from __future__ import annotations

import math
from dataclasses import MISSING as _MISSING
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.distance.metrics import (
    GRAM_MAX_DIM,
    float32_kernel_slack,
    gram_screen,
    pairwise_euclidean,
)

#: Target number of matrix elements per query block in predict_many; keeps
#: the (queries x seeds) distance matrix cache-resident.
_BLOCK_ELEMENTS = 4_000_000

#: Smallest seed dimension at which predict_many screens each query block
#: with one BLAS product before the exact kernel (see
#: ``ClusterSnapshot._screen``).  Per 256-row read against 80 seeds, in µs
#: (best of 3 x 7 x 1000 calls; 2-core Xeon, OpenBLAS):
#:
#: ===  =====  ======  =====
#: dim  exact  screen  ratio
#: ===  =====  ======  =====
#:   2     99      87  1.14
#:   4    104      90  1.16
#:   6    121      95  1.27
#:   8    146     102  1.43
#:  12    193      91  2.12
#:  16    249      94  2.65
#:  34    453     132  3.43
#:  64    734     208  3.53
#: ===  =====  ======  =====
#:
#: Below 8 dimensions the gain is small and not reliable: on the 2-d
#: snapshots of the SDS stream (95 and 145 seeds, SDS held-out queries) the
#: screen was 0.97-1.29x of the exact kernel across runs.  Those snapshots
#: keep the exact kernel alone; from 8 on the gain grows with the dimension.
_SCREEN_MIN_DIM = 8

#: Smallest query block, counted as rows x seeds x dim, that the screen
#: takes.  The screen costs some 25 numpy calls per block whatever its size
#: (~50 µs on the machine above), so the exact kernel wins on small blocks
#: such as a single ``predict_one``.  Over dim 8-64, 20-2000 seeds and 1-256
#: rows the screen ran at 0.35-1.22x the exact kernel's speed on blocks
#: below 2¹⁷ and at 1.45-13x on blocks above it.
_SCREEN_MIN_WORK = 2**17


def _frozen_array(values: Any, dtype: Any) -> Optional[np.ndarray]:
    """Copy ``values`` into a read-only numpy array (``None`` passes through)."""
    if values is None:
        return None
    array = np.array(values, dtype=dtype, copy=True)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class GridSpec:
    """Serving state of a grid-based clusterer (D-Stream, MR-Stream).

    A point maps to the grid key ``floor((v - origin) / width)`` per axis,
    optionally clamped to ``[0, divisions - 1]`` (MR-Stream's bounded
    domain); the cluster label is then a lookup in ``labels``.
    """

    width: float
    labels: Mapping[Tuple[int, ...], int]
    origin: float = 0.0
    divisions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"grid width must be positive, got {self.width}")
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))

    def keys_of(self, queries: np.ndarray) -> List[Tuple[int, ...]]:
        """Grid keys of a ``(n, d)`` query block."""
        scaled = np.floor((queries - self.origin) / self.width).astype(np.int64)
        if self.divisions is not None:
            np.clip(scaled, 0, self.divisions - 1, out=scaled)
        return [tuple(int(v) for v in row) for row in scaled]

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle support: the label table travels as a plain dict."""
        return {
            "width": self.width,
            "labels": dict(self.labels),
            "origin": self.origin,
            "divisions": self.divisions,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Restore the frozen fields and re-wrap the label table read-only."""
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "labels", MappingProxyType(dict(state["labels"])))


@dataclass
class ServingView:
    """Mutable builder a clusterer fills in to publish a snapshot.

    Exactly one of the three serving representations should be populated:
    ``seeds`` (numeric seed matrix), ``seed_objects`` + ``metric``
    (non-numeric seeds, e.g. token sets under Jaccard), or ``grid``.
    """

    time: float = 0.0
    n_points: int = 0
    tau: Optional[float] = None
    seeds: Optional[np.ndarray] = None
    seed_objects: Optional[Sequence[Any]] = None
    metric: Optional[Callable[[Any, Any], float]] = None
    cell_ids: Optional[Sequence[int]] = None
    labels: Optional[Sequence[int]] = None
    densities: Optional[Sequence[float]] = None
    coverage: Union[float, Sequence[float]] = math.inf
    grid: Optional[GridSpec] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def partition(self, outlier_label: int) -> Dict[int, FrozenSet[Hashable]]:
        """Cluster label -> member summary ids, for stable-id matching."""
        members: Dict[int, set] = {}
        if self.grid is not None:
            for key, label in self.grid.labels.items():
                if label != outlier_label:
                    members.setdefault(int(label), set()).add(key)
        elif self.labels is not None:
            ids = self.cell_ids
            if ids is None:
                ids = range(len(self.labels))
            for cell_id, label in zip(ids, self.labels):
                if label != outlier_label:
                    members.setdefault(int(label), set()).add(cell_id)
        return {label: frozenset(ms) for label, ms in members.items()}


@dataclass(frozen=True)
class ClusterSnapshot:
    """An immutable, versioned view of one clustering state.

    Instances are produced by :class:`SnapshotPublisher` (via
    ``StreamClusterer.request_clustering`` / ``snapshot``); every array is a
    private read-only copy, so a snapshot taken before further ingestion is
    bit-identical after it — readers never observe the writer.

    ``labels`` holds the clusterer's *native* cluster labels (for EDMStream:
    the DP-Tree root cell id of each active cell), which is what
    ``predict_*`` returns by default so that snapshot queries agree with the
    clusterer's own ``predict_one``.  ``stable_ids`` maps those native
    labels to serving-side ids that persist across versions while the
    cluster survives; pass ``stable=True`` to ``predict_*`` (or use
    :meth:`stable_label_of`) to query in that id space.
    """

    version: int
    time: float
    n_points: int
    algorithm: str = "stream-clusterer"
    outlier_label: int = -1
    tau: Optional[float] = None
    seeds: Optional[np.ndarray] = None
    seed_objects: Optional[Tuple[Any, ...]] = None
    metric: Optional[Callable[[Any, Any], float]] = None
    grid: Optional[GridSpec] = None
    cell_ids: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    densities: Optional[np.ndarray] = None
    coverage: Union[float, np.ndarray] = math.inf
    stable_ids: Mapping[int, int] = field(default_factory=dict)
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        freeze = object.__setattr__
        # The seed matrix arrives as a slice straight out of the arena's
        # contiguous storage; keep its reduced precision (float32 mode)
        # instead of silently doubling the serving-side footprint.
        seed_dtype = (
            self.seeds.dtype
            if isinstance(self.seeds, np.ndarray)
            and self.seeds.dtype in (np.float32, np.float64)
            else float
        )
        freeze(self, "seeds", _frozen_array(self.seeds, seed_dtype))
        if self.seed_objects is not None:
            freeze(self, "seed_objects", tuple(self.seed_objects))
        freeze(self, "cell_ids", _frozen_array(self.cell_ids, np.int64))
        freeze(self, "labels", _frozen_array(self.labels, np.int64))
        freeze(self, "densities", _frozen_array(self.densities, float))
        if not np.isscalar(self.coverage):
            freeze(self, "coverage", _frozen_array(self.coverage, float))
        freeze(self, "stable_ids", MappingProxyType(dict(self.stable_ids)))
        freeze(self, "metadata", MappingProxyType(dict(self.metadata)))

    # ------------------------------------------------------------------ #
    # cross-process transport
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, Any]:
        """Pickle support: mapping proxies travel as plain dicts."""
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["stable_ids"] = dict(self.stable_ids)
        state["metadata"] = dict(self.metadata)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Restore the frozen fields, re-freezing proxies and array flags."""
        freeze = object.__setattr__
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            freeze(self, name, value)
        freeze(self, "stable_ids", MappingProxyType(dict(state["stable_ids"])))
        freeze(self, "metadata", MappingProxyType(dict(state["metadata"])))

    @classmethod
    def _assemble(cls, **values: Any) -> "ClusterSnapshot":
        """Construct a snapshot without the ``__post_init__`` defensive copies.

        The serving tier's shared-memory hydration path
        (:mod:`repro.api.transport`) rebuilds snapshots directly over
        buffer-backed arrays; copying here would defeat the zero-copy
        publication contract.  Every array handed in must therefore already
        be read-only — this constructor enforces that instead of copying.
        """
        snapshot = object.__new__(cls)
        freeze = object.__setattr__
        for f in fields(cls):
            if f.name in values:
                value = values[f.name]
            elif f.default is not _MISSING:
                value = f.default
            else:
                value = f.default_factory()  # type: ignore[misc]
            if isinstance(value, np.ndarray) and value.flags.writeable:
                raise ValueError(
                    f"_assemble requires read-only arrays; {f.name!r} is writable"
                )
            freeze(snapshot, f.name, value)
        freeze(snapshot, "stable_ids", MappingProxyType(dict(snapshot.stable_ids or {})))
        freeze(snapshot, "metadata", MappingProxyType(dict(snapshot.metadata or {})))
        return snapshot

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    @property
    def n_cells(self) -> int:
        """Number of summaries (seeds / grid cells) the snapshot serves from."""
        if self.grid is not None:
            return len(self.grid.labels)
        if self.seeds is not None:
            return int(self.seeds.shape[0])
        if self.seed_objects is not None:
            return len(self.seed_objects)
        return 0

    @property
    def n_clusters(self) -> int:
        """Number of distinct (non-outlier) clusters in the snapshot."""
        return len(self.cluster_labels())

    def cluster_labels(self) -> List[int]:
        """Sorted native cluster labels present in the snapshot."""
        if self.grid is not None:
            values = set(self.grid.labels.values())
        elif self.labels is not None:
            values = set(int(v) for v in self.labels)
        else:
            values = set()
        values.discard(self.outlier_label)
        return sorted(values)

    def clusters(self) -> Dict[int, List[Hashable]]:
        """Native cluster label -> sorted member summary ids."""
        members: Dict[int, List[Hashable]] = {}
        if self.grid is not None:
            for key, label in self.grid.labels.items():
                if label != self.outlier_label:
                    members.setdefault(int(label), []).append(key)
        elif self.labels is not None:
            ids = (
                self.cell_ids
                if self.cell_ids is not None
                else np.arange(len(self.labels))
            )
            for cell_id, label in zip(ids, self.labels):
                if label != self.outlier_label:
                    members.setdefault(int(label), []).append(int(cell_id))
        for ms in members.values():
            ms.sort()
        return members

    def stable_label_of(self, native_label: int) -> int:
        """Stable serving id of a native cluster label (outlier passes through)."""
        if native_label == self.outlier_label:
            return self.outlier_label
        return self.stable_ids.get(int(native_label), self.outlier_label)

    def cell_assignment(self) -> Dict[Hashable, int]:
        """Summary id -> native cluster label (outliers omitted)."""
        assignment: Dict[Hashable, int] = {}
        for label, members in self.clusters().items():
            for member in members:
                assignment[member] = label
        return assignment

    # ------------------------------------------------------------------ #
    # serving queries
    # ------------------------------------------------------------------ #
    def predict_one(self, values: Any) -> int:
        """Cluster label of one point under this (frozen) clustering."""
        return int(self.predict_many([values])[0])

    def predict_many(self, points: Sequence[Any], stable: bool = False) -> np.ndarray:
        """Vectorised cluster labels for a batch of query points.

        Row ``i`` of the result is exactly ``predict_one(points[i])`` — the
        batch runs through the same shared kernel with the same tie-breaking
        (first seed in array order on exact distance ties).  On snapshots of
        eight or more dimensions a Gram-matrix screen answers most rows
        first; it only decides a row when the exact kernel provably returns
        the same label (see :meth:`_predict_numeric`).  In every mode but
        the object-keyed one a single 1-D point is one query.
        ``stable=True`` returns labels in the stable serving-id space
        instead of the native one.
        """
        if len(points) == 0:
            return np.empty(0, dtype=np.int64)
        if self.seed_objects is not None or self.metric is not None:
            queries = points
        else:
            dtype = float if self.seeds is None else self.seeds.dtype
            queries = np.asarray(points, dtype=dtype)
            if queries.ndim == 1:
                queries = queries[None, :]
        if self.grid is not None:
            table = self.grid.labels
            out = np.asarray(
                [table.get(key, self.outlier_label) for key in self.grid.keys_of(queries)],
                dtype=np.int64,
            )
        elif self.seeds is not None and self.seeds.size:
            out = self._predict_numeric(queries)
        elif self.seed_objects:
            out = self._predict_objects(queries)
        else:
            out = np.full(len(queries), self.outlier_label, dtype=np.int64)
        if stable:
            native, inverse = np.unique(out, return_inverse=True)
            mapped = np.asarray(
                [self.stable_label_of(int(label)) for label in native], dtype=np.int64
            )
            out = mapped[inverse.reshape(out.shape)]
        return out

    def _predict_numeric(self, queries: np.ndarray) -> np.ndarray:
        """Labels of a ``(n, dim)`` query matrix, in blocks of the seed matrix.

        Below :data:`_SCREEN_MIN_DIM` dimensions, and for blocks under
        :data:`_SCREEN_MIN_WORK`, a block goes straight to the exact kernel
        (:meth:`_predict_exact`).  Otherwise one BLAS product screens it
        first (:meth:`_screen`), and only the rows the screen cannot decide
        reach the exact kernel, so the labels are the exact kernel's in
        either case.
        """
        n = queries.shape[0]
        n_seeds, dim = self.seeds.shape
        out = np.empty(n, dtype=np.int64)
        block = max(1, _BLOCK_ELEMENTS // max(1, n_seeds))
        screen = _SCREEN_MIN_DIM <= dim < GRAM_MAX_DIM
        for start in range(0, n, block):
            rows = queries[start : min(n, start + block)]
            if not screen or len(rows) * n_seeds * dim < _SCREEN_MIN_WORK:
                out[start : start + len(rows)] = self._predict_exact(rows)
                continue
            labels, undecided = self._screen(rows)
            if undecided.size:
                labels[undecided] = self._predict_exact(rows[undecided])
            out[start : start + len(rows)] = labels
        return out

    def _predict_exact(self, rows: np.ndarray) -> np.ndarray:
        """The exact kernel: first nearest seed in array order, then coverage."""
        distances = pairwise_euclidean(rows, self.seeds)
        positions = np.argmin(distances, axis=1)
        best = distances[np.arange(len(rows)), positions]
        covered = best <= self._coverage_at(positions)
        return np.where(covered, self.labels[positions], self.outlier_label)

    @cached_property
    def _lifted_seeds(self) -> np.ndarray:
        """``[-2·sᵀ ; ‖s‖²]`` in float64: one product with ``[q, 1]`` gives ``‖s‖² - 2q·s``.

        Built on the first screened query and kept with the snapshot (the
        seeds never change); it travels with neither pickles nor buffers.
        """
        dim = self.seeds.shape[1]
        lifted = np.empty((dim + 1, self.seeds.shape[0]))
        lifted[:dim] = self.seeds.T
        lifted[:dim] *= -2.0
        lifted[dim] = np.einsum("ij,ij->i", self.seeds, self.seeds, dtype=np.float64)
        lifted.flags.writeable = False
        return lifted

    def _screen(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gram-matrix labels of a query block, and the rows left undecided.

        ``g = ‖s‖² - 2q·s`` comes from one float64 product with
        :attr:`_lifted_seeds`; :func:`~repro.distance.metrics.gram_screen`
        decides a row only when the exact kernel provably picks the same
        nearest seed and the same side of its coverage (widened by
        :func:`~repro.distance.metrics.float32_kernel_slack` on float32
        snapshots).  A negative coverage covers nothing, like a zero one
        does beyond distance 0; a NaN one leaves its rows undecided.
        """
        n, dim = rows.shape
        lifted = self._lifted_seeds
        lifted_rows = np.empty((n, dim + 1))
        lifted_rows[:, :dim] = rows
        lifted_rows[:, dim] = 1.0
        with np.errstate(all="ignore"):
            gram = lifted_rows @ lifted
            query_norm2 = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
            reach2 = np.square(np.maximum(self.coverage, 0.0))
        positions, covered, decided = gram_screen(
            gram,
            query_norm2,
            query_norm2 + lifted[dim].max(),
            reach2,
            float32_kernel_slack(dim) if rows.dtype == np.float32 else 0.0,
        )
        labels = np.where(covered, self.labels[positions], self.outlier_label)
        return labels, np.flatnonzero(~decided)

    def _predict_objects(self, points: Sequence[Any]) -> np.ndarray:
        metric = self.metric
        out = np.empty(len(points), dtype=np.int64)
        for i, point in enumerate(points):
            distances = np.asarray(
                [metric(point, seed) for seed in self.seed_objects], dtype=float
            )
            position = int(np.argmin(distances))
            if distances[position] <= self._coverage_at(np.asarray([position]))[0]:
                out[i] = int(self.labels[position])
            else:
                out[i] = self.outlier_label
        return out

    def _coverage_at(self, positions: np.ndarray) -> np.ndarray:
        if np.isscalar(self.coverage):
            return np.full(positions.shape, float(self.coverage))
        return np.asarray(self.coverage)[positions]

    def summary(self) -> Dict[str, Any]:
        """Compact description of the snapshot, for logs and reports."""
        return {
            "version": self.version,
            "algorithm": self.algorithm,
            "time": self.time,
            "points": self.n_points,
            "cells": self.n_cells,
            "clusters": self.n_clusters,
            "tau": self.tau,
        }


class SnapshotPublisher:
    """Versioning and stable-id bookkeeping for one clusterer's snapshots.

    The publisher assigns strictly increasing version numbers and matches
    each new partition against the previously published one by member
    overlap: a new cluster inherits the stable id of the old cluster it
    shares the largest member fraction with (at least ``overlap_threshold``
    of either side), the same survival rule
    :class:`repro.core.evolution.EvolutionTracker` applies when it emits
    SURVIVE / SPLIT / MERGE events.  Unmatched clusters get fresh ids, so a
    stable id is never reused for a different cluster.
    """

    def __init__(self, overlap_threshold: float = 0.5) -> None:
        if not 0.0 < overlap_threshold <= 1.0:
            raise ValueError(
                f"overlap_threshold must be in (0, 1], got {overlap_threshold}"
            )
        self.overlap_threshold = overlap_threshold
        self._version = 0
        self._next_stable_id = 0
        #: stable id -> member set of the cluster at its last publication.
        self._previous: Dict[int, FrozenSet[Hashable]] = {}

    @property
    def version(self) -> int:
        """Version of the most recently published snapshot (0 = none yet)."""
        return self._version

    # ------------------------------------------------------------------ #
    def publish(
        self,
        view: ServingView,
        algorithm: str = "stream-clusterer",
        outlier_label: int = -1,
    ) -> ClusterSnapshot:
        """Freeze a :class:`ServingView` into the next snapshot version."""
        partition = view.partition(outlier_label)
        stable_ids = self._match_stable_ids(partition)
        self._previous = {
            stable_ids[label]: members for label, members in partition.items()
        }
        self._version += 1
        return ClusterSnapshot(
            version=self._version,
            time=view.time,
            n_points=view.n_points,
            algorithm=algorithm,
            outlier_label=outlier_label,
            tau=view.tau,
            seeds=view.seeds,
            seed_objects=view.seed_objects,
            metric=view.metric,
            grid=view.grid,
            cell_ids=view.cell_ids,
            labels=view.labels,
            densities=view.densities,
            coverage=view.coverage,
            stable_ids=stable_ids,
            metadata=view.metadata,
        )

    # ------------------------------------------------------------------ #
    def _match_stable_ids(
        self, partition: Mapping[int, FrozenSet[Hashable]]
    ) -> Dict[int, int]:
        """Greedy max-overlap matching of new clusters onto known stable ids."""
        candidates: List[Tuple[int, int, int, int]] = []
        for label, members in partition.items():
            if not members:
                continue
            for stable_id, old_members in self._previous.items():
                shared = len(members & old_members)
                if not shared:
                    continue
                share = max(shared / len(old_members), shared / len(members))
                if share >= self.overlap_threshold:
                    candidates.append((shared, stable_id, label, len(members)))
        # Largest overlap wins; ties resolve deterministically by id.
        candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
        mapping: Dict[int, int] = {}
        used_stable: set = set()
        for shared, stable_id, label, _ in candidates:
            if label in mapping or stable_id in used_stable:
                continue
            mapping[label] = stable_id
            used_stable.add(stable_id)
        for label in sorted(partition):
            if label not in mapping:
                mapping[label] = self._next_stable_id
                self._next_stable_id += 1
        self._next_stable_id = max(
            self._next_stable_id, max(mapping.values(), default=-1) + 1
        )
        return mapping
