"""Batch DBSCAN (Ester et al., KDD 1996).

DBSCAN is the offline component of DenStream (and the conceptual ancestor of
D-Stream's grid clustering).  Section 2.3 of the paper contrasts it with DP
clustering: DBSCAN builds a *density-connected undirected graph* over core
points and returns its connected components, whereas DP builds a directed
dependency tree and returns maximal strongly dependent subtrees.

The implementation supports per-point weights so that it can recluster
weighted micro-cluster centres, which is exactly how DenStream's offline
phase uses it.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.api import ClusterSnapshot, ServingView, StreamClusterer

NOISE = -1
UNVISITED = -2


class DBSCAN(StreamClusterer):
    """Density-based spatial clustering of applications with noise.

    Primarily a batch substrate (:meth:`fit_predict` over a point matrix,
    optionally weighted — exactly how DenStream's offline phase uses it),
    but it also implements the :class:`~repro.api.StreamClusterer` protocol
    as a buffer-and-recluster adapter: :meth:`learn_one` collects points and
    :meth:`request_clustering` runs the batch algorithm over the buffer,
    which is the classic "recluster everything periodically" straw man the
    streaming algorithms improve on.

    Parameters
    ----------
    eps:
        Neighbourhood radius ε.
    min_pts:
        Minimum (weighted) number of points inside the ε-neighbourhood for a
        point to be a core point.  With ``weights`` given, the neighbourhood
        mass is the sum of the neighbours' weights.
    """

    name = "DBSCAN"

    def __init__(self, eps: float, min_pts: float = 5.0) -> None:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if min_pts <= 0:
            raise ValueError(f"min_pts must be positive, got {min_pts}")
        self.eps = eps
        self.min_pts = min_pts
        self._buffer: List[Tuple[float, ...]] = []
        self._buffer_labels = np.empty(0, dtype=int)
        self._buffer_matrix = np.empty((0, 0), dtype=float)
        self._now = 0.0
        self._stale = True

    # ------------------------------------------------------------------ #
    # StreamClusterer adapter (buffer + periodic full recluster)
    # ------------------------------------------------------------------ #
    def learn_one(
        self, values: Sequence[float], timestamp: Optional[float] = None, label: Optional[int] = None
    ) -> int:
        if timestamp is None:
            timestamp = self._now + 1.0
        self._now = max(self._now, timestamp)
        self._buffer.append(tuple(float(v) for v in values))
        self._stale = True
        return len(self._buffer) - 1

    def request_clustering(self) -> ClusterSnapshot:
        """Re-run batch DBSCAN over every buffered point."""
        if self._buffer:
            self._buffer_matrix = np.asarray(self._buffer, dtype=float)
            self._buffer_labels = self.fit_predict(self._buffer_matrix)
        else:
            self._buffer_matrix = np.empty((0, 0), dtype=float)
            self._buffer_labels = np.empty(0, dtype=int)
        self._stale = False
        return self._publish_snapshot()

    def _serving_view(self) -> ServingView:
        return ServingView(
            time=self._now,
            n_points=len(self._buffer),
            seeds=self._buffer_matrix,
            cell_ids=list(range(self._buffer_matrix.shape[0])),
            labels=self._buffer_labels,
            coverage=self.eps,
            metadata={"buffered_points": len(self._buffer)},
        )

    def predict_one(self, values: Sequence[float]) -> int:
        if self._stale:
            self.request_clustering()
        if self._buffer_matrix.size == 0:
            return NOISE
        point = np.asarray(values, dtype=float)
        diffs = self._buffer_matrix - point
        distances = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        position = int(np.argmin(distances))
        if distances[position] > self.eps:
            return NOISE
        return int(self._buffer_labels[position])

    @property
    def n_clusters(self) -> int:
        if self._stale:
            self.request_clustering()
        return len({int(v) for v in self._buffer_labels if v != NOISE})

    def fit_predict(
        self,
        data: Sequence[Sequence[float]],
        weights: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Cluster ``data`` and return labels (0..k-1, ``-1`` for noise)."""
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            if matrix.size == 0:
                return np.empty(0, dtype=int)
            raise ValueError(f"expected a 2-D array of points, got shape {matrix.shape}")
        n = matrix.shape[0]
        if n == 0:
            return np.empty(0, dtype=int)
        if weights is None:
            weight_arr = np.ones(n, dtype=float)
        else:
            weight_arr = np.asarray(weights, dtype=float)
            if weight_arr.shape[0] != n:
                raise ValueError(
                    f"weights length {weight_arr.shape[0]} does not match data length {n}"
                )

        labels = np.full(n, UNVISITED, dtype=int)
        cluster_id = 0
        for index in range(n):
            if labels[index] != UNVISITED:
                continue
            neighbours = self._region_query(matrix, index)
            if weight_arr[neighbours].sum() < self.min_pts:
                labels[index] = NOISE
                continue
            self._expand_cluster(matrix, weight_arr, labels, index, neighbours, cluster_id)
            cluster_id += 1
        labels[labels == UNVISITED] = NOISE
        return labels

    def _region_query(self, matrix: np.ndarray, index: int) -> np.ndarray:
        diffs = matrix - matrix[index]
        distances = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        return np.flatnonzero(distances <= self.eps)

    def _expand_cluster(
        self,
        matrix: np.ndarray,
        weights: np.ndarray,
        labels: np.ndarray,
        index: int,
        neighbours: np.ndarray,
        cluster_id: int,
    ) -> None:
        labels[index] = cluster_id
        queue = deque(int(i) for i in neighbours if i != index)
        while queue:
            current = queue.popleft()
            if labels[current] == NOISE:
                labels[current] = cluster_id  # border point of this cluster
            if labels[current] != UNVISITED:
                continue
            labels[current] = cluster_id
            current_neighbours = self._region_query(matrix, current)
            if weights[current_neighbours].sum() >= self.min_pts:
                queue.extend(
                    int(i) for i in current_neighbours if labels[i] in (UNVISITED, NOISE)
                )
