"""Result containers used by the benchmark harness.

Every container round-trips through plain JSON (``to_payload`` /
``from_payload``) so the fleet runner can persist one durable
``result.json`` per run and rebuild the full :class:`ExperimentResult`
when resuming or consolidating benchmark artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


def jsonify(value: Any) -> Any:
    """Coerce ``value`` (possibly holding numpy scalars/arrays) to plain JSON types."""
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):  # numpy array
        return value.tolist()
    return str(value)


@dataclass
class SeriesResult:
    """A named (x, y) series, e.g. "response time vs stream length"."""

    name: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)
    x_label: str = "x"
    y_label: str = "y"

    def append(self, x: float, y: float) -> None:
        """Append one (x, y) sample."""
        self.x.append(float(x))
        self.y.append(float(y))

    def __len__(self) -> int:
        return len(self.x)

    def mean(self) -> float:
        """Mean of the y values (0 for an empty series)."""
        return sum(self.y) / len(self.y) if self.y else 0.0

    def last(self) -> Optional[float]:
        """Last y value, or ``None`` for an empty series."""
        return self.y[-1] if self.y else None

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict representation (inverse of :meth:`from_payload`)."""
        return {
            "name": self.name,
            "x": [float(v) for v in self.x],
            "y": [float(v) for v in self.y],
            "x_label": self.x_label,
            "y_label": self.y_label,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SeriesResult":
        """Rebuild a series from :meth:`to_payload` output."""
        return cls(**payload)


@dataclass
class RunMetrics:
    """Measurements collected while running one algorithm over one stream."""

    algorithm: str
    stream_name: str
    n_points: int = 0
    total_seconds: float = 0.0
    #: Stream length (points processed) at each checkpoint.
    checkpoints: List[int] = field(default_factory=list)
    #: Average per-point response time (µs) inside each checkpoint window,
    #: including the amortised cost of bringing the clustering up to date.
    response_time_us: List[float] = field(default_factory=list)
    #: Throughput (points/second) inside each checkpoint window.
    throughput: List[float] = field(default_factory=list)
    #: Wall-clock cost (ms) of one clustering request at each checkpoint.
    clustering_request_ms: List[float] = field(default_factory=list)
    #: CMM value over the recent-points window at each checkpoint.
    cmm: List[float] = field(default_factory=list)
    #: Number of macro clusters at each checkpoint.
    n_clusters: List[int] = field(default_factory=list)
    #: Free-form extra measurements (filter statistics, reservoir size, ...).
    extras: Dict[str, Any] = field(default_factory=dict)

    def series(self, field_name: str, y_label: Optional[str] = None) -> SeriesResult:
        """Expose one checkpointed measurement as a :class:`SeriesResult`."""
        values = getattr(self, field_name)
        return SeriesResult(
            name=self.algorithm,
            x=[float(c) for c in self.checkpoints],
            y=[float(v) for v in values],
            x_label="stream length",
            y_label=y_label or field_name,
        )

    @property
    def mean_response_time_us(self) -> float:
        """Mean per-point response time over all checkpoints (µs)."""
        if not self.response_time_us:
            return 0.0
        return sum(self.response_time_us) / len(self.response_time_us)

    @property
    def mean_throughput(self) -> float:
        """Mean throughput over all checkpoints (points/second)."""
        if not self.throughput:
            return 0.0
        return sum(self.throughput) / len(self.throughput)

    @property
    def mean_cmm(self) -> float:
        """Mean CMM over all checkpoints."""
        if not self.cmm:
            return 0.0
        return sum(self.cmm) / len(self.cmm)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict representation (inverse of :meth:`from_payload`)."""
        return jsonify(
            {
                "algorithm": self.algorithm,
                "stream_name": self.stream_name,
                "n_points": self.n_points,
                "total_seconds": self.total_seconds,
                "checkpoints": self.checkpoints,
                "response_time_us": self.response_time_us,
                "throughput": self.throughput,
                "clustering_request_ms": self.clustering_request_ms,
                "cmm": self.cmm,
                "n_clusters": self.n_clusters,
                "extras": self.extras,
            }
        )

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RunMetrics":
        """Rebuild run metrics from :meth:`to_payload` output."""
        return cls(**payload)


@dataclass
class ExperimentResult:
    """The outcome of one experiment (one table or figure of the paper)."""

    experiment_id: str
    description: str
    series: Dict[str, SeriesResult] = field(default_factory=dict)
    tables: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    runs: List[RunMetrics] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_series(self, key: str, series: SeriesResult) -> None:
        """Register a named series."""
        self.series[key] = series

    def add_table(self, key: str, rows: List[Dict[str, Any]]) -> None:
        """Register a named table (list of row dicts)."""
        self.tables[key] = rows

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict representation (inverse of :meth:`from_payload`).

        The fleet runner persists this as each run's durable ``result.json``;
        resuming a matrix rebuilds the result from the payload instead of
        re-executing the run, so everything the benchmark artifacts and gates
        consume (tables, series, metadata, per-run metrics) must survive the
        round trip.
        """
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "series": {key: s.to_payload() for key, s in self.series.items()},
            "tables": jsonify(self.tables),
            "runs": [run.to_payload() for run in self.runs],
            "metadata": jsonify(self.metadata),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        """Rebuild an experiment result from :meth:`to_payload` output."""
        return cls(
            experiment_id=payload["experiment_id"],
            description=payload["description"],
            series={
                key: SeriesResult.from_payload(item)
                for key, item in payload.get("series", {}).items()
            },
            tables=dict(payload.get("tables", {})),
            runs=[RunMetrics.from_payload(item) for item in payload.get("runs", [])],
            metadata=dict(payload.get("metadata", {})),
        )

    def to_text(self) -> str:
        """Render every table and series of the experiment as plain text."""
        from repro.harness.reporting import format_series, format_table

        lines = [f"== {self.experiment_id}: {self.description} =="]
        for key, rows in self.tables.items():
            lines.append("")
            lines.append(f"-- table: {key} --")
            lines.append(format_table(rows))
        for key, series in self.series.items():
            lines.append("")
            lines.append(f"-- series: {key} --")
            lines.append(format_series(series))
        return "\n".join(lines)
