"""CMM — the Cluster Mapping Measure (Kremer et al., KDD 2011).

CMM is the external quality criterion used in Section 6.4.  Unlike purity or
the F-measure it is designed for *evolving* streams: objects are weighted by
their freshness, found clusters are mapped to ground-truth classes by
majority, and only *fault objects* contribute a penalty:

* **missed objects** — objects of a ground-truth class that the clustering
  left unassigned (outliers), although they are well connected to their class;
* **misplaced objects** — objects placed in a cluster that is mapped to a
  different class;
* **noise inclusion** — noise objects placed inside a cluster.

The penalty of a fault object is scaled by its *connectivity* to the classes
involved, where connectivity is defined through average k-nearest-neighbour
distances: an object far from its own class (low connectivity) is cheap to
miss, an object deeply embedded in a foreign cluster is expensive.

    CMM(C, CL) = 1 - Σ_{o ∈ F} w(o)·pen(o, C) / Σ_{o ∈ F} w(o)·con(o, Cl(o))

with CMM = 1 when there are no fault objects.  This implementation follows
the published definition with one simplification: ground-truth classes are
used directly as the reference clustering (the original optionally splits
classes into sub-clusters first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence

import numpy as np


@dataclass
class CMMResult:
    """Outcome of a CMM evaluation."""

    value: float
    n_objects: int
    n_faults: int
    n_missed: int
    n_misplaced: int
    n_noise_inclusion: int
    penalty: float
    normalisation: float

    def __float__(self) -> float:  # pragma: no cover - convenience
        return self.value


class CMM:
    """Cluster Mapping Measure for evolving data streams.

    Parameters
    ----------
    k:
        Neighbourhood size used by the connectivity computation.
    noise_label:
        Ground-truth label denoting noise objects.
    outlier_label:
        Predicted label denoting "not clustered".
    decay_a, decay_lambda:
        Weighting of objects by age: ``w(o) = a^(λ·(t_now - t_o))``.  The
        defaults match the paper's decay model.
    """

    def __init__(
        self,
        k: int = 5,
        noise_label: int = -1,
        outlier_label: int = -1,
        decay_a: float = 0.998,
        decay_lambda: float = 1.0,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.noise_label = noise_label
        self.outlier_label = outlier_label
        self.decay_a = decay_a
        self.decay_lambda = decay_lambda

    # ------------------------------------------------------------------ #
    # connectivity helpers
    # ------------------------------------------------------------------ #
    def _knn_distance(self, point: np.ndarray, members: np.ndarray) -> float:
        """Average distance from ``point`` to its k nearest members."""
        if members.shape[0] == 0:
            return math.inf
        diffs = members - point
        distances = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        distances.sort()
        k = min(self.k, distances.shape[0])
        return float(distances[:k].mean())

    def _group_knn_distance(self, members: np.ndarray) -> float:
        """Average of the members' average k-NN distances within the group."""
        n = members.shape[0]
        if n <= 1:
            return 0.0
        total = 0.0
        for i in range(n):
            others = np.delete(members, i, axis=0)
            total += self._knn_distance(members[i], others)
        return total / n

    def _connectivity(
        self, point: np.ndarray, members: np.ndarray, group_knn: float
    ) -> float:
        """Connectivity of ``point`` to the group (1 = well connected)."""
        if members.shape[0] == 0:
            return 0.0
        point_knn = self._knn_distance(point, members)
        if point_knn <= group_knn or point_knn == 0.0:
            return 1.0
        if group_knn == 0.0:
            return 0.0
        return group_knn / point_knn

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        points: Sequence[Sequence[float]],
        true_labels: Sequence[int],
        predicted_labels: Sequence[int],
        timestamps: Optional[Sequence[float]] = None,
        now: Optional[float] = None,
    ) -> CMMResult:
        """Evaluate CMM over a window of points.

        Parameters
        ----------
        points:
            Numeric attribute vectors of the window.
        true_labels:
            Ground-truth class per point (``noise_label`` for noise).
        predicted_labels:
            Found cluster per point (``outlier_label`` for unassigned).
        timestamps:
            Arrival times used for the freshness weights; ``None`` weights
            every object equally.
        now:
            Evaluation time; defaults to the latest timestamp.
        """
        matrix = np.asarray(points, dtype=float)
        n = matrix.shape[0] if matrix.ndim == 2 else 0
        if n == 0:
            return CMMResult(1.0, 0, 0, 0, 0, 0, 0.0, 0.0)
        if len(true_labels) != n or len(predicted_labels) != n:
            raise ValueError("points, true_labels and predicted_labels must have equal length")

        if timestamps is None:
            weights = np.ones(n, dtype=float)
        else:
            times = np.asarray(timestamps, dtype=float)
            current = float(times.max()) if now is None else now
            weights = self.decay_a ** (self.decay_lambda * np.maximum(0.0, current - times))

        true_arr = np.asarray(true_labels)
        predicted_arr = np.asarray(predicted_labels)

        # Members and group k-NN distance per ground-truth class (excluding noise).
        class_members: Dict[Hashable, np.ndarray] = {}
        class_knn: Dict[Hashable, float] = {}
        for label in set(true_arr.tolist()):
            if label == self.noise_label:
                continue
            members = matrix[true_arr == label]
            class_members[label] = members
            class_knn[label] = self._group_knn_distance(members)

        # Map each found cluster to the ground-truth class contributing most weight.
        cluster_to_class: Dict[Hashable, Hashable] = {}
        for cluster in set(predicted_arr.tolist()):
            if cluster == self.outlier_label:
                continue
            mask = predicted_arr == cluster
            best_class = None
            best_weight = -1.0
            for label in class_members:
                weight = float(weights[mask & (true_arr == label)].sum())
                if weight > best_weight:
                    best_weight = weight
                    best_class = label
            cluster_to_class[cluster] = best_class

        # The normalisation term accumulates every object's weighted
        # connectivity to its own class, so CMM expresses the fault penalty
        # as a fraction of the total "connectivity mass" in the window: a
        # single fault among many well-clustered objects costs little, while
        # missing everything drives CMM to 0.
        penalty = 0.0
        normalisation = 0.0
        n_missed = n_misplaced = n_noise = 0

        for i in range(n):
            truth = true_arr[i]
            predicted = predicted_arr[i]
            weight = float(weights[i])
            point = matrix[i]

            if truth == self.noise_label:
                normalisation += weight * 1.0
                if predicted == self.outlier_label:
                    continue  # correctly identified noise
                # Noise inclusion: penalise by connectivity to the mapped class.
                mapped = cluster_to_class.get(predicted)
                if mapped is None or mapped not in class_members:
                    continue
                connectivity = self._connectivity(
                    point, class_members[mapped], class_knn[mapped]
                )
                penalty += weight * connectivity
                n_noise += 1
                continue

            own_members = class_members.get(truth)
            own_knn = class_knn.get(truth, 0.0)
            own_connectivity = (
                self._connectivity(point, own_members, own_knn)
                if own_members is not None
                else 0.0
            )
            normalisation += weight * own_connectivity

            if predicted == self.outlier_label:
                # Missed object.
                penalty += weight * own_connectivity
                n_missed += 1
                continue

            mapped = cluster_to_class.get(predicted)
            if mapped == truth:
                continue  # correctly placed
            # Misplaced object: penalty grows with how connected the object is
            # to its own class and how poorly it fits the mapped class.
            if mapped is not None and mapped in class_members:
                foreign_connectivity = self._connectivity(
                    point, class_members[mapped], class_knn[mapped]
                )
            else:
                foreign_connectivity = 0.0
            penalty += weight * own_connectivity * (1.0 - foreign_connectivity)
            n_misplaced += 1

        n_faults = n_missed + n_misplaced + n_noise
        if n_faults == 0 or normalisation <= 0.0:
            value = 1.0
        else:
            value = max(0.0, min(1.0, 1.0 - penalty / normalisation))
        return CMMResult(
            value=value,
            n_objects=n,
            n_faults=n_faults,
            n_missed=n_missed,
            n_misplaced=n_misplaced,
            n_noise_inclusion=n_noise,
            penalty=penalty,
            normalisation=normalisation,
        )

    def __call__(self, *args, **kwargs) -> float:
        """Shorthand returning only the CMM value."""
        return self.evaluate(*args, **kwargs).value
