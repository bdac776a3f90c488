"""Seeded inputs and one closed-loop round for each benchmark workload.

A *round* is one caller driving a fresh model through a whole stream: set-up
(model construction plus warm-up ingest until the DP-Tree is initialised,
Section 4.1), then the timed loop, where each update call starts only after
the previous one returned.  Rounds of one run replay identical inputs, so
every count a round produces must repeat exactly.

Inputs depend on ``--seed`` only through the records drawn: the SDS
evolution script and the KDD stream's class structure (centres, spreads,
burst schedule) stay fixed, so the amount of work, and the figures, stay
comparable from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro import EDMStream
from repro.evaluation.external import purity
from repro.harness.experiments import choose_radius
from repro.streams.point import StreamPoint
from repro.streams.stream import DataStream
from repro.streams.synthetic import SDSGenerator

RATE = 1000.0  # points per stream second, as in the paper
BETA = 0.0021  # the paper's beta
BATCH = 256  # points per learn_many micro-batch
QUERY_BATCH = 256  # points per predict_many read
READS_PER_WRITE = 16  # sds-serve reads after every write
READS_PER_CHECKPOINT = 192  # reads at every quality checkpoint on the other workloads
HELD_OUT = 1_000_003  # offset of the held-out query seed from the run seed
KDD_STRUCTURE_SEED = 23  # the KDDCUP99 surrogate's default seed


@dataclass(frozen=True)
class Spec:
    """Static description of one workload."""

    name: str
    stream: str  # "kdd" or "sds"
    n_points: int
    per_point: bool  # learn_one per point instead of learn_many batches
    serve: bool  # reads after every write
    window: int  # points per purity window


#: The workloads by name; why each was chosen is recorded in BENCHMARK.json.
#: Streams are short enough for a run to replay each one dozens of times:
#: the timings take every call's fastest replay (see run.py), and more
#: replays make that steadier than a longer stream would.
SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("kdd-batch", "kdd", 12_000, per_point=False, serve=False, window=2048),
        Spec("sds-point", "sds", 8_000, per_point=True, serve=False, window=1024),
        Spec("sds-serve", "sds", 20_000, per_point=False, serve=True, window=2048),
    )
}

#: Points of the batch-versus-oracle check.
PREFIX = 4096


def kdd_stream(n_points: int, seed: int) -> List[StreamPoint]:
    """A KDDCUP99-like stream with a fixed class structure, records from ``seed``.

    The class model is that of :func:`repro.streams.real.kddcup99_surrogate`
    (34 attributes, 23 power-law classes in bursts of 20-400 records with
    30% near-duplicates, 3% uniform noise), and the centres and spreads are
    the surrogate's at its default seed.  The burst schedule (which class,
    how long) is the benchmark's own, also drawn from that fixed seed: the
    surrogate interleaves it with the record draws, so there it cannot stay
    fixed while the records change.  Every seed thus draws its records from
    the same classes in the same order.
    """
    dim, n_classes, noise = 34, 23, 0.03
    rng = np.random.default_rng(KDD_STRUCTURE_SEED)
    raw = np.asarray([1.0 / (k + 1) ** 1.8 for k in range(n_classes)])
    weights = raw / raw.sum()
    centers = rng.uniform(0.0, 1000.0, size=(n_classes, dim))
    spreads = rng.uniform(0.5, 25.0, size=(n_classes, dim))
    spreads[:, rng.random(dim) < 0.5] *= 0.05
    schedule = []
    i = 0
    while i < n_points:
        burst = min(int(rng.integers(20, 400)), n_points - i)
        schedule.append((int(rng.choice(n_classes, p=weights)), burst))
        i += burst

    rng = np.random.default_rng(seed)
    values = np.empty((n_points, dim))
    labels = np.empty(n_points, dtype=np.int64)
    i = 0
    for cls, burst in schedule:
        block = centers[cls] + rng.normal(0.0, 1.0, size=(burst, dim)) * spreads[cls]
        repeat = rng.random(burst) < 0.3
        for j in range(1, burst):
            if repeat[j]:
                block[j] = block[j - 1]
        values[i : i + burst] = block
        labels[i : i + burst] = cls
        i += burst
    mask = rng.random(n_points) < noise
    values[mask] = rng.uniform(0.0, 1000.0, size=(int(mask.sum()), dim))
    labels[mask] = -1
    return [
        StreamPoint(values=tuple(values[i]), timestamp=i / RATE, label=int(labels[i]), point_id=i)
        for i in range(n_points)
    ]


def sds_stream(n_points: int, seed: int) -> List[StreamPoint]:
    """The SDS Figure 6 evolution script, sampled with ``seed``."""
    return SDSGenerator(n_points=n_points, rate=RATE, seed=seed).generate().points


@dataclass
class Inputs:
    """Everything a round needs, generated once per run."""

    points: List[StreamPoint]
    #: Held-out query rows, time-aligned with ``points`` (row i ~ point i).
    queries: np.ndarray
    radius: float


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Generate the stream and held-out queries for ``spec`` from ``seed``."""
    make = kdd_stream if spec.stream == "kdd" else sds_stream
    points = make(spec.n_points, seed)
    held_out = make(spec.n_points, seed + HELD_OUT)
    queries = np.asarray([p.values for p in held_out], dtype=float)
    if spec.stream == "kdd":
        radius = choose_radius(DataStream(points=points, name=spec.name, rate=RATE))
    else:
        radius = 0.3  # Table 2
    return Inputs(points=points, queries=queries, radius=radius)


def make_model(inputs: Inputs, telemetry: bool = False) -> EDMStream:
    """A fresh model with the workload's parameters."""
    return EDMStream(
        radius=inputs.radius, beta=BETA, stream_rate=RATE, telemetry=True if telemetry else None
    )


@dataclass
class Round:
    """What one round measured.

    The timings are per-call series: every round replays the same inputs,
    so call ``i`` does the same work in every round and the rounds' series
    can be compared element by element.
    """

    setup_s: float = 0.0
    points: int = 0  # points ingested in the timed loop
    update_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    query_points: int = 0
    purity: float = 0.0
    cell_state_bytes: int = 0
    calls: int = 0
    failed_calls: int = 0
    error: Optional[str] = None
    model: Optional[EDMStream] = None
    #: Exact counts that must repeat from round to round.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-layer seconds (traced rounds only).
    layer: Dict[str, float] = field(default_factory=dict)


def warm_up(spec: Spec, model: EDMStream, points: List[StreamPoint]) -> int:
    """Ingest until the DP-Tree is built; returns the number of points fed."""
    pos = 0
    while not model.initialized:
        if spec.per_point:
            point = points[pos]
            model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
            pos += 1
        else:
            model.learn_many(points[pos : pos + BATCH], batch_size=BATCH)
            pos += BATCH
    return pos


def run_round(spec: Spec, inputs: Inputs, tracer=None) -> Round:
    """One closed-loop round; ``tracer`` (installed after set-up) traces it."""
    points = inputs.points
    n = len(points)
    result = Round()
    started = perf_counter()
    model = make_model(inputs, telemetry=tracer is not None)
    pos = warm_up(spec, model, points)
    result.setup_s = perf_counter() - started
    result.model = model
    first = pos

    baseline = _layer_baseline(model)
    if tracer is not None:
        tracer.begin_round()
        tracer.install(model.snapshot().version)

    queries = inputs.queries
    # Reads after a write at ``pos`` cover the held-out rows just before it
    # (wrapping to the end of the held-out set early in the stream).
    ring = np.concatenate((queries[-READS_PER_WRITE * QUERY_BATCH :], queries))
    windows: List[float] = []
    update_s, query_s = result.update_s, result.query_s

    def read(pos: int, count: int) -> None:
        for r in range(count):
            start = pos + (r % READS_PER_WRITE) * QUERY_BATCH
            block = ring[start : start + QUERY_BATCH]
            t0 = perf_counter()
            model.predict_many(block)
            query_s.append(perf_counter() - t0)
        result.calls += count
        result.query_points += count * QUERY_BATCH

    try:
        while pos < n:
            if spec.per_point:
                point = points[pos]
                t0 = perf_counter()
                model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
                update_s.append(perf_counter() - t0)
                pos += 1
            else:
                batch = points[pos : pos + BATCH]
                t0 = perf_counter()
                model.learn_many(batch, batch_size=BATCH)
                update_s.append(perf_counter() - t0)
                pos += len(batch)
            result.calls += 1
            if spec.serve:
                read(pos, READS_PER_WRITE)
            if (pos - first) % spec.window == 0 or pos == n:
                # Quality checkpoint, untraced: purity (untimed) and, where
                # no reads follow every write, reads against the snapshot
                # as it is at this point of the stream.
                if tracer is not None:
                    tracer.uninstall()
                windows.append(_window_purity(model, points[max(0, pos - spec.window) : pos]))
                if not spec.serve:
                    read(pos, READS_PER_CHECKPOINT)
                if tracer is not None:
                    tracer.install(model.snapshot().version)
        result.points = pos - first
    except Exception as exc:  # a failed call ends the round and is counted
        result.failed_calls += 1
        result.calls += 1
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()

    result.purity = float(np.mean(windows)) if windows else 0.0
    result.cell_state_bytes = int(model.memory_footprint()["total"])
    result.counts = _exact_counts(model, baseline, result)
    if tracer is not None:
        layer = tracer.round_metrics()
        layer.update(_phase_metrics(model, baseline))
        layer["soa.create_per_pt"] = layer["soa.cells_created"] / max(1, result.points)
        result.layer = {k: v for k, v in layer.items() if k.endswith("_s")}
        result.counts.update({k: v for k, v in layer.items() if not k.endswith("_s")})
    return result


def _window_purity(model: EDMStream, window: List[StreamPoint]) -> float:
    predicted = model.predict_many([p.values for p in window])
    return purity([p.label for p in window], predicted.tolist())


def _layer_baseline(model: EDMStream) -> Dict[str, object]:
    """Cumulative library counters at the end of set-up."""
    return {
        "filters": model.filter_stats.as_dict(),
        "phases": model.obs.phase_totals(),
    }


def _exact_counts(model: EDMStream, baseline: Dict[str, object], result: Round) -> Dict[str, float]:
    stats = model.filter_stats.as_dict()
    before = baseline["filters"]
    candidates = stats["candidates"] - before["candidates"]
    computations = stats["distance_computations"] - before["distance_computations"]
    changes = stats["dependency_changes"] - before["dependency_changes"]
    return {
        "filters.candidates": float(candidates),
        "filters.distance_computations": float(computations),
        "filters.dependency_changes": float(changes),
        "filters.change_ratio": changes / computations if computations else 0.0,
        "soa.cells_live": float(model.n_active_cells + model.n_inactive_cells),
        "active_cells": float(model.n_active_cells),
        "clusters": float(model.n_clusters),
        "tau": float(model.tau or 0.0),
        "purity": result.purity,
        "cell_state_bytes": float(result.cell_state_bytes),
    }


def _phase_metrics(model: EDMStream, baseline: Dict[str, object]) -> Dict[str, float]:
    """Timed-loop share of the library's own phase totals (telemetry on)."""
    totals = model.obs.phase_totals()
    before = baseline["phases"]

    def seconds(phase: str) -> float:
        spent = totals.get(phase, {}).get("seconds", 0.0)
        return spent - before.get(phase, {}).get("seconds", 0.0)

    return {
        "batch.assign_s": seconds("assign"),
        "batch.absorb_s": seconds("absorb"),
        "batch.dependency_s": seconds("dependency"),
        "edmstream.maintenance_s": seconds("maintenance"),
    }
