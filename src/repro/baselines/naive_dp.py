"""Periodic (non-incremental) Density-Peaks stream clustering.

This is the ablation counterpart of EDMStream's incremental DP-Tree
maintenance: it uses the *same* cluster-cell summarisation (online phase)
but, instead of updating dependencies incrementally with the Theorem 1/2
filters, it recomputes the full Density-Peaks structure over the cell seeds
whenever a clustering is requested — i.e. it behaves like the two-phase
baselines, with DP as the offline algorithm.

Comparing EDMStream against :class:`PeriodicDPStream` isolates the benefit
of the DP-Tree and the filtering schemes from the benefit of the density-
mountain formulation itself (see the ``ablation`` experiment,
``python -m repro run ablation``).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines._centers import CenterArray
from repro.api import ClusterSnapshot, ServingView, StreamClusterer
from repro.core.decay import DecayModel


class PeriodicDPStream(StreamClusterer):
    """Cluster-cell summarisation + periodic batch DP reclustering.

    Parameters
    ----------
    radius:
        Cluster-cell radius r (as in EDMStream).
    tau:
        Cluster-separation threshold applied to the recomputed dependent
        distances.
    beta, stream_rate, decay_a, decay_lambda:
        Decay model and active threshold, matching EDMStream's semantics.
    """

    name = "Periodic-DP"

    def __init__(
        self,
        radius: float = 0.3,
        tau: float = 2.0,
        beta: float = 0.0021,
        stream_rate: float = 1000.0,
        decay_a: float = 0.998,
        decay_lambda: float = 1.0,
    ) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.radius = radius
        self.tau = tau
        self.beta = beta
        self.stream_rate = stream_rate
        self.decay = DecayModel(a=decay_a, lam=decay_lambda)

        self._centers = CenterArray()
        self._density: Dict[int, float] = {}
        self._last_update: Dict[int, float] = {}
        self._next_id = 1
        self._now = 0.0
        self._start: Optional[float] = None
        self._n_points = 0
        self._labels: Dict[int, int] = {}
        self._stale = True

    # ------------------------------------------------------------------ #
    def learn_one(
        self, values: Sequence[float], timestamp: Optional[float] = None, label: Optional[int] = None
    ) -> int:
        point = np.asarray(values, dtype=float)
        if timestamp is None:
            timestamp = self._now + 1.0 / self.stream_rate
        if self._start is None:
            self._start = timestamp
        self._now = max(self._now, timestamp)
        self._n_points += 1
        self._stale = True

        nearest = self._centers.nearest(point)
        if nearest is not None and nearest[1] <= self.radius:
            cell_id = nearest[0]
        else:
            cell_id = self._next_id
            self._next_id += 1
            self._centers.add(cell_id, point)
            self._density[cell_id] = 0.0
            self._last_update[cell_id] = self._now
        elapsed = self._now - self._last_update[cell_id]
        self._density[cell_id] = self.decay.decay_density(self._density[cell_id], elapsed) + 1.0
        self._last_update[cell_id] = self._now
        return cell_id

    def _density_now(self, cell_id: int) -> float:
        elapsed = self._now - self._last_update[cell_id]
        return self.decay.decay_density(self._density[cell_id], elapsed)

    def _active_threshold(self) -> float:
        steady = self.decay.active_threshold(self.beta, self.stream_rate)
        if self._start is None:
            return max(1.0, steady)
        warmup = 1.0 - self.decay.decay_factor(max(0.0, self._now - self._start))
        return max(1.0 + 1e-12, steady * warmup)

    # ------------------------------------------------------------------ #
    def request_clustering(self) -> ClusterSnapshot:
        """Recompute the full DP structure (ρ, δ, dependencies) from scratch."""
        threshold = self._active_threshold()
        ids = [cid for cid in self._centers.ids() if self._density_now(cid) >= threshold]
        self._labels = {}
        if not ids:
            self._stale = False
            return self._publish_snapshot()
        centers = np.asarray([self._centers.get(cid) for cid in ids])
        densities = np.asarray([self._density_now(cid) for cid in ids])

        order = np.argsort(-densities, kind="stable")
        dependency = [-1] * len(ids)
        delta = [math.inf] * len(ids)
        for rank, index in enumerate(order):
            if rank == 0:
                continue
            higher = order[:rank]
            diffs = centers[higher] - centers[index]
            distances = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            best = int(np.argmin(distances))
            dependency[index] = int(higher[best])
            delta[index] = float(distances[best])

        labels = [-1] * len(ids)
        next_label = 0
        for index in order:
            parent = dependency[index]
            if parent == -1 or delta[index] > self.tau:
                labels[index] = next_label
                next_label += 1
            else:
                labels[index] = labels[parent]
        self._labels = {cid: labels[i] for i, cid in enumerate(ids)}
        self._stale = False
        return self._publish_snapshot()

    def _serving_view(self) -> ServingView:
        cell_ids = self._centers.ids()
        return ServingView(
            time=self._now,
            n_points=self._n_points,
            tau=self.tau,
            seeds=self._centers.matrix(),
            cell_ids=cell_ids,
            labels=[self._labels.get(cid, -1) for cid in cell_ids],
            densities=[self._density_now(cid) for cid in cell_ids],
            coverage=self.radius,
            metadata={"cells": len(self._centers)},
        )

    def predict_one(self, values: Sequence[float]) -> int:
        if self._stale:
            self.request_clustering()
        nearest = self._centers.nearest(np.asarray(values, dtype=float))
        if nearest is None:
            return -1
        cell_id, distance = nearest
        if distance > self.radius:
            return -1
        return self._labels.get(cell_id, -1)

    @property
    def n_clusters(self) -> int:
        if self._stale:
            self.request_clustering()
        return len(set(self._labels.values()))

    @property
    def n_cells(self) -> int:
        """Number of cluster-cells currently maintained."""
        return len(self._centers)
