"""Surrogate generators for the paper's real datasets (Table 2).

The original experiments use KDDCUP99 (network intrusion records), CoverType
(forest cover observations) and PAMAP2 (body-sensor activity traces).  Those
datasets are not shipped with this repository, so each has a *surrogate
generator* that reproduces the structural properties that matter for the
algorithms under test:

* **KDDCUP99** — 34 numeric attributes, 23 classes with extreme class
  imbalance (a handful of attack types dominate), long runs of
  near-duplicate records, and bursty class ordering.
* **CoverType** — 54 attributes, 7 overlapping elongated clusters with
  correlated attributes.
* **PAMAP2** — 51 attributes, 13 activities emitted as long contiguous
  sessions (sensor readings are autocorrelated in time), so clusters
  emerge and disappear as the subject switches activity.

The substitution rests on one premise: relative algorithm behaviour (who is
faster, how quality evolves) depends on the density structure and temporal
ordering of the stream, which the surrogates preserve, not on the exact
semantic meaning of the attributes.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.streams.point import StreamPoint
from repro.streams.stream import DataStream


def _emit(values: np.ndarray, labels: np.ndarray, rate: float, name: str) -> DataStream:
    interval = 1.0 / rate
    points = [
        StreamPoint(
            values=tuple(values[i]),
            timestamp=i * interval,
            label=int(labels[i]),
            point_id=i,
        )
        for i in range(values.shape[0])
    ]
    return DataStream(points=points, name=name, rate=rate)


def kddcup99_surrogate(
    n_points: int = 50000,
    rate: float = 1000.0,
    dimension: int = 34,
    n_classes: int = 23,
    noise_fraction: float = 0.03,
    seed: int = 23,
) -> DataStream:
    """Surrogate for the KDDCUP99 network-intrusion stream.

    Class frequencies follow a steep power law (the real dataset is dominated
    by ``smurf`` and ``neptune`` attacks plus normal traffic), records inside
    a class are tightly packed with many near-duplicates, and the stream is
    emitted in bursts of the same class, as real attack traffic is.
    """
    rng = np.random.default_rng(seed)
    # Power-law class weights: a few classes dominate.
    raw = np.asarray([1.0 / (k + 1) ** 1.8 for k in range(n_classes)])
    weights = raw / raw.sum()
    centers = rng.uniform(0.0, 1000.0, size=(n_classes, dimension))
    # Tight, anisotropic spreads — many attributes of KDDCUP99 are near-constant.
    spreads = rng.uniform(0.5, 25.0, size=(n_classes, dimension))
    spreads[:, rng.random(dimension) < 0.5] *= 0.05

    values = np.empty((n_points, dimension))
    labels = np.empty(n_points, dtype=int)
    i = 0
    while i < n_points:
        cls = int(rng.choice(n_classes, p=weights))
        burst = int(rng.integers(20, 400))
        burst = min(burst, n_points - i)
        block = centers[cls] + rng.normal(0.0, 1.0, size=(burst, dimension)) * spreads[cls]
        # Near-duplicates: a fraction of the burst repeats the previous record.
        duplicate_mask = rng.random(burst) < 0.3
        for j in range(1, burst):
            if duplicate_mask[j]:
                block[j] = block[j - 1]
        values[i : i + burst] = block
        labels[i : i + burst] = cls
        i += burst
    # Scatter uniform noise records (port scans, malformed packets) through
    # the stream so that noise handling is exercised.
    noise_mask = rng.random(n_points) < noise_fraction
    values[noise_mask] = rng.uniform(0.0, 1000.0, size=(int(noise_mask.sum()), dimension))
    labels[noise_mask] = -1
    return _emit(values, labels, rate, "KDDCUP99-surrogate")


def covertype_surrogate(
    n_points: int = 60000,
    rate: float = 1000.0,
    dimension: int = 54,
    n_classes: int = 7,
    noise_fraction: float = 0.03,
    seed: int = 54,
) -> DataStream:
    """Surrogate for the CoverType stream.

    Seven overlapping, elongated clusters with correlated attributes and a
    mild class imbalance (two cover types dominate the real dataset).  The
    two dominant classes are placed close together so that they genuinely
    overlap — that overlap is what stresses the CMM misplaced-object penalty
    in Figure 13 and keeps the quality comparison discriminative.
    """
    rng = np.random.default_rng(seed)
    raw = np.asarray([0.37, 0.33, 0.06, 0.05, 0.08, 0.06, 0.05])[:n_classes]
    weights = raw / raw.sum()
    centers = rng.uniform(0.0, 1200.0, size=(n_classes, dimension))
    if n_classes >= 2:
        # The two dominant cover types (spruce/fir and lodgepole pine) overlap.
        centers[1] = centers[0] + rng.normal(0.0, 120.0, size=dimension)
    # Correlated attributes: build a shared low-rank mixing matrix.
    mixing = rng.normal(0.0, 1.0, size=(dimension, 8))
    labels = rng.choice(n_classes, size=n_points, p=weights)
    latent = rng.normal(0.0, 60.0, size=(n_points, 8))
    noise = rng.normal(0.0, 40.0, size=(n_points, dimension))
    values = centers[labels] + latent @ mixing.T + noise
    noise_mask = rng.random(n_points) < noise_fraction
    values[noise_mask] = rng.uniform(-500.0, 1700.0, size=(int(noise_mask.sum()), dimension))
    labels[noise_mask] = -1
    return _emit(values, labels, rate, "CoverType-surrogate")


def pamap2_surrogate(
    n_points: int = 45000,
    rate: float = 1000.0,
    dimension: int = 51,
    n_activities: int = 13,
    session_length: Tuple[int, int] = (1500, 4000),
    seed: int = 51,
) -> DataStream:
    """Surrogate for the PAMAP2 physical-activity stream.

    Sensor readings arrive in long contiguous *sessions* of a single activity
    with autocorrelated values (a slow random walk around the activity's
    sensor signature).  This temporal structure makes clusters emerge when an
    activity starts and decay after it ends — exactly the behaviour that the
    evolution-tracking and reservoir experiments exercise.
    """
    rng = np.random.default_rng(seed)
    signatures = rng.uniform(-30.0, 30.0, size=(n_activities, dimension))
    spreads = rng.uniform(0.5, 3.0, size=(n_activities, dimension))

    values = np.empty((n_points, dimension))
    labels = np.empty(n_points, dtype=int)
    i = 0
    while i < n_points:
        activity = int(rng.integers(0, n_activities))
        length = int(rng.integers(session_length[0], session_length[1]))
        length = min(length, n_points - i)
        # Autocorrelated drift inside the session.
        drift = np.cumsum(rng.normal(0.0, 0.05, size=(length, dimension)), axis=0)
        noise = rng.normal(0.0, 1.0, size=(length, dimension)) * spreads[activity]
        values[i : i + length] = signatures[activity] + drift + noise
        labels[i : i + length] = activity
        i += length
    return _emit(values, labels, rate, "PAMAP2-surrogate")


#: Radii used by the paper for each real dataset (Table 2), rescaled for the
#: surrogate value ranges.  Experiments may still override them.
PAPER_RADII = {
    "KDDCUP99-surrogate": 100.0,
    "CoverType-surrogate": 250.0,
    "PAMAP2-surrogate": 5.0,
}


def dataset_catalog() -> List[dict]:
    """The Table 2 dataset inventory (paper values plus surrogate defaults)."""
    return [
        {"name": "SDS", "instances": 20000, "dim": 2, "clusters": 2, "r": 0.3},
        {"name": "HDS-10d", "instances": 100000, "dim": 10, "clusters": 20, "r": 60},
        {"name": "HDS-30d", "instances": 100000, "dim": 30, "clusters": 20, "r": 65},
        {"name": "HDS-100d", "instances": 100000, "dim": 100, "clusters": 20, "r": 68},
        {"name": "HDS-300d", "instances": 100000, "dim": 300, "clusters": 20, "r": 70},
        {"name": "HDS-1000d", "instances": 100000, "dim": 1000, "clusters": 20, "r": 70},
        {"name": "NADS", "instances": 422937, "dim": None, "clusters": 7231, "r": 0.4},
        {"name": "KDDCUP99", "instances": 494021, "dim": 34, "clusters": 23, "r": 100},
        {"name": "CoverType", "instances": 581012, "dim": 54, "clusters": 7, "r": 250},
        {"name": "PAMAP2", "instances": 447000, "dim": 51, "clusters": 13, "r": 5},
    ]
