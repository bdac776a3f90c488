"""Data-stream containers and rate control (Section 3.1).

The experiments in the paper fix a point-arrival rate (1,000 pt/s unless
otherwise stated) and convert static datasets to streams by taking the data
input order as the streaming order.  :class:`DataStream` models exactly
that: an ordered collection of :class:`~repro.streams.point.StreamPoint`
whose timestamps are assigned from an arrival rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.streams.point import StreamPoint


@dataclass
class DataStream:
    """An ordered, timestamped, optionally labelled data stream.

    ``DataStream`` is an in-memory container (the generators in this package
    produce bounded streams sized for laptop-scale experiments) but the
    clusterers only ever see one point at a time, so swapping in a true
    unbounded source only requires an iterable of ``StreamPoint``.
    """

    points: List[StreamPoint]
    name: str = "stream"
    rate: float = 1000.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"stream rate must be positive, got {self.rate}")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[StreamPoint]:
        return iter(self.points)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DataStream(points=self.points[index], name=self.name, rate=self.rate)
        return self.points[index]

    @property
    def dimension(self) -> int:
        """Dimensionality of the stream (0 if empty or non-numeric)."""
        if not self.points:
            return 0
        return self.points[0].dimension

    @property
    def duration(self) -> float:
        """Time span covered by the stream in seconds."""
        if not self.points:
            return 0.0
        return self.points[-1].timestamp - self.points[0].timestamp

    def labels(self) -> List[Optional[int]]:
        """Ground-truth labels in stream order."""
        return [p.label for p in self.points]

    def values_matrix(self) -> np.ndarray:
        """The numeric attribute vectors stacked into an ``(n, d)`` array."""
        return np.asarray([p.as_tuple() for p in self.points], dtype=float)

    def prefix(self, n: int) -> "DataStream":
        """First ``n`` points as a new stream."""
        return DataStream(points=self.points[:n], name=self.name, rate=self.rate)

    def with_rate(self, rate: float) -> "DataStream":
        """Re-timestamp the stream for a different arrival rate.

        Used by the stream-rate experiments (Figures 14 and 16): the same
        point order is replayed at 1k/5k/10k points per second.
        """
        if rate <= 0:
            raise ValueError(f"stream rate must be positive, got {rate}")
        interval = 1.0 / rate
        start = self.points[0].timestamp if self.points else 0.0
        new_points = [
            StreamPoint(
                values=p.values,
                timestamp=start + i * interval,
                label=p.label,
                point_id=p.point_id,
                payload=p.payload,
            )
            for i, p in enumerate(self.points)
        ]
        return DataStream(points=new_points, name=self.name, rate=rate)

    def shuffled(self, seed: int = 0) -> "DataStream":
        """A copy of the stream with point order shuffled and re-timestamped."""
        rng = random.Random(seed)
        order = list(range(len(self.points)))
        rng.shuffle(order)
        interval = 1.0 / self.rate
        start = self.points[0].timestamp if self.points else 0.0
        new_points = [
            StreamPoint(
                values=self.points[j].values,
                timestamp=start + i * interval,
                label=self.points[j].label,
                point_id=self.points[j].point_id,
                payload=self.points[j].payload,
            )
            for i, j in enumerate(order)
        ]
        return DataStream(points=new_points, name=f"{self.name}-shuffled", rate=self.rate)


def stream_from_arrays(
    values: Sequence[Sequence[float]],
    labels: Optional[Sequence[int]] = None,
    rate: float = 1000.0,
    start_time: float = 0.0,
    name: str = "stream",
) -> DataStream:
    """Convert a static dataset into a rate-controlled stream.

    The input order becomes the streaming order, matching the paper's
    experimental setup ("Both the synthetic and real datasets are converted
    into streams by taking the data input order as the order of streaming").
    """
    if labels is not None and len(labels) != len(values):
        raise ValueError(
            f"labels length {len(labels)} does not match values length {len(values)}"
        )
    interval = 1.0 / rate
    points = []
    for i, row in enumerate(values):
        label = int(labels[i]) if labels is not None else None
        points.append(
            StreamPoint.from_sequence(
                row,
                timestamp=start_time + i * interval,
                label=label,
                point_id=i,
            )
        )
    return DataStream(points=points, name=name, rate=rate)
