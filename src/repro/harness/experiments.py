"""Experiment drivers for the efficiency / quality figures of Section 6.

Each public function reproduces one table or figure of the paper's
evaluation and returns an :class:`~repro.harness.results.ExperimentResult`
holding the same series/rows the paper plots.  The
:func:`~repro.harness.registry.register` call after each driver declares
its id, tags, benchmark parameters, artifact and gate; it runs as a
benchmark through ``python -m repro fleet run --id <id>``.

Figures covered here: 9 (response time), 10 (throughput), 11 (filtering
ablation), 12 (dimensionality), 13 (quality), 14 (stream rate), 16 (outlier
reservoir), 17 (radius), plus Table 2 (datasets) and the DP-Tree ablation.
The evolution-centric experiments (Figures 6-8, 15, Tables 3-4) live in
:mod:`repro.harness.scenarios`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import (
    CluStream,
    DBStream,
    DenStream,
    DStream,
    MRStream,
    PeriodicDPStream,
)
from repro.core import EDMStream
from repro.harness.registry import register
from repro.harness.results import ExperimentResult, SeriesResult
from repro.harness.runner import StreamRunner
from repro.streams import (
    HDSGenerator,
    SDSGenerator,
    covertype_surrogate,
    kddcup99_surrogate,
    pamap2_surrogate,
)
from repro.streams.real import dataset_catalog
from repro.streams.stream import DataStream


# --------------------------------------------------------------------- #
# BENCH_* environment knobs (read by the benchmark params, payloads, gates)
# --------------------------------------------------------------------- #
def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, str(default)))


def _env_tuple(name: str, default: str) -> tuple:
    return tuple(
        item.strip() for item in os.environ.get(name, default).split(",") if item.strip()
    )


# --------------------------------------------------------------------- #
# dataset and algorithm factories
# --------------------------------------------------------------------- #

#: The three real-dataset surrogates used by Figures 9-11, 13 and 16-17.
REAL_DATASET_FACTORIES: Dict[str, Callable[..., DataStream]] = {
    "KDDCUP99": kddcup99_surrogate,
    "CoverType": covertype_surrogate,
    "PAMAP2": pamap2_surrogate,
}


def make_real_stream(
    name: str, n_points: int, rate: float = 1000.0, seed: Optional[int] = None
) -> DataStream:
    """Instantiate one of the real-dataset surrogates by paper name.

    ``seed=None`` keeps each surrogate's own fixed default seed, so runs
    stay bit-identical with the historical behaviour unless an explicit
    seed (e.g. from ``fleet run --seed``) is threaded through.
    """
    if name not in REAL_DATASET_FACTORIES:
        known = ", ".join(sorted(REAL_DATASET_FACTORIES))
        raise KeyError(f"unknown dataset {name!r}; known: {known}")
    return REAL_DATASET_FACTORIES[name](n_points=n_points, rate=rate, **_seed_kw(seed))


def _seed_kw(seed: Optional[int]) -> Dict[str, int]:
    """``{"seed": seed}`` when an explicit seed is set, else nothing."""
    return {} if seed is None else {"seed": seed}


def choose_radius(
    stream: DataStream, percentile: float = 2.0, sample_size: int = 1000, seed: int = 0
) -> float:
    """Choose the cluster-cell radius r as a percentile of pairwise distances.

    This follows the paper (Section 6.1 / 6.7): r is chosen like the cut-off
    distance ``dc`` of DP clustering, between 0.5% and 2% of the sorted
    pairwise distances.  A random sample keeps the cost bounded on large
    streams.
    """
    rng = np.random.default_rng(seed)
    n = len(stream)
    if n < 2:
        return 1.0
    size = min(sample_size, n)
    indices = rng.choice(n, size=size, replace=False)
    sample = np.asarray([stream[int(i)].as_tuple() for i in indices])
    squared = np.sum(sample ** 2, axis=1)
    dist_sq = squared[:, None] + squared[None, :] - 2.0 * sample @ sample.T
    np.maximum(dist_sq, 0.0, out=dist_sq)
    distances = np.sqrt(dist_sq[np.triu_indices(size, k=1)])
    positive = distances[distances > 0]
    if positive.size == 0:
        return 1.0
    return float(np.percentile(positive, percentile))


def _data_bounds(stream: DataStream, sample_size: int = 2000) -> Tuple[float, float]:
    size = min(sample_size, len(stream))
    sample = np.asarray([stream[i].as_tuple() for i in range(size)])
    return float(sample.min()), float(sample.max())


def _n_classes(stream: DataStream) -> int:
    labels = {p.label for p in stream.points if p.label is not None and p.label >= 0}
    return max(1, len(labels))


def default_algorithms(
    stream: DataStream,
    radius: Optional[float] = None,
    include: Sequence[str] = ("EDMStream", "D-Stream", "DenStream", "DBSTREAM", "MR-Stream"),
    rate: Optional[float] = None,
    edm_kwargs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the competitor set of Section 6 with per-dataset parameters.

    The radius r (EDMStream), ε (DenStream, DBSTREAM) and grid size
    (D-Stream, MR-Stream) are all derived from the same pairwise-distance
    percentile so that every algorithm works at a comparable spatial
    granularity, mirroring the paper's "parameters set by referring to their
    papers" with equalised decay rates.
    """
    if radius is None:
        radius = choose_radius(stream)
    if rate is None:
        rate = stream.rate
    low, high = _data_bounds(stream)
    span = max(high - low, 1e-9)
    algorithms: Dict[str, Any] = {}
    edm_kwargs = dict(edm_kwargs or {})
    for name in include:
        if name == "EDMStream":
            params = dict(
                radius=radius,
                beta=0.0021,
                stream_rate=rate,
                decay_a=0.998,
                decay_lambda=1.0,
            )
            params.update(edm_kwargs)
            algorithms[name] = EDMStream(**params)
        elif name == "D-Stream":
            algorithms[name] = DStream(
                grid_size=max(radius, span / 64.0), decay_a=0.998, decay_lambda=1.0
            )
        elif name == "DenStream":
            algorithms[name] = DenStream(
                eps=radius, mu=5.0, beta=0.3, decay_a=2.0, decay_lambda=0.0028
            )
        elif name == "DBSTREAM":
            algorithms[name] = DBStream(
                radius=radius, decay_a=2.0, decay_lambda=0.0028, w_min=1.5,
                alpha_intersection=0.1,
            )
        elif name == "MR-Stream":
            algorithms[name] = MRStream(
                bounds=(low - 0.01 * span, high + 0.01 * span),
                max_height=5,
                decay_a=1.002,
                decay_lambda=-1.0,
            )
        elif name == "CluStream":
            algorithms[name] = CluStream(
                n_micro_clusters=100,
                n_macro_clusters=_n_classes(stream),
                horizon=max(10.0, len(stream) / rate),
            )
        elif name == "Periodic-DP":
            algorithms[name] = PeriodicDPStream(
                radius=radius, tau=4.0 * radius, stream_rate=rate
            )
        else:
            raise KeyError(f"unknown algorithm {name!r}")
    return algorithms


# --------------------------------------------------------------------- #
# Table 2 — dataset inventory
# --------------------------------------------------------------------- #
def experiment_table2(
    n_points: int = 2000, seed: Optional[int] = None
) -> ExperimentResult:
    """Table 2: the dataset inventory (paper values + surrogate properties)."""
    result = ExperimentResult(
        experiment_id="table2",
        description="Datasets (paper values and generated surrogate properties)",
    )
    result.add_table("paper", dataset_catalog())

    generated_rows = []
    seed_kw = _seed_kw(seed)
    generators = {
        "SDS": lambda: SDSGenerator(n_points=n_points, **seed_kw).generate(),
        "HDS-10d": lambda: HDSGenerator(
            dimension=10, n_points=n_points, **seed_kw
        ).generate(),
        "KDDCUP99": lambda: kddcup99_surrogate(n_points=n_points, **seed_kw),
        "CoverType": lambda: covertype_surrogate(n_points=n_points, **seed_kw),
        "PAMAP2": lambda: pamap2_surrogate(n_points=n_points, **seed_kw),
    }
    for name, factory in generators.items():
        stream = factory()
        generated_rows.append(
            {
                "name": stream.name,
                "instances": len(stream),
                "dim": stream.dimension,
                "clusters": _n_classes(stream),
                "suggested_r": round(choose_radius(stream), 4),
            }
        )
    result.add_table("surrogates", generated_rows)
    return result


def gate_table2(result: ExperimentResult) -> None:
    """Table 2 must inventory the paper's 10 datasets and our 5 surrogates."""
    assert len(result.tables["paper"]) == 10
    assert len(result.tables["surrogates"]) == 5


register(
    "table2",
    "Table 2 — dataset inventory",
    experiment_table2,
    tags=("paper", "table"),
    params=lambda: {"points": 2000},
    gate=gate_table2,
)


# --------------------------------------------------------------------- #
# Figures 9 and 10 — response time and throughput
# --------------------------------------------------------------------- #
def experiment_response_time(
    datasets: Sequence[str] = ("KDDCUP99", "CoverType", "PAMAP2"),
    algorithms: Sequence[str] = ("EDMStream", "D-Stream", "DenStream", "DBSTREAM"),
    n_points: int = 10000,
    checkpoint_every: int = 2500,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Figure 9: average response time vs stream length, per dataset and algorithm."""
    result = ExperimentResult(
        experiment_id="fig9",
        description="Response time (µs per point, incl. amortised offline step) vs stream length",
    )
    summary_rows = []
    for dataset in datasets:
        stream = make_real_stream(dataset, n_points, seed=seed)
        radius = choose_radius(stream)
        competitors = default_algorithms(stream, radius=radius, include=algorithms)
        runner = StreamRunner(
            checkpoint_every=checkpoint_every, evaluate_quality=False
        )
        for name, algorithm in competitors.items():
            metrics = runner.run(algorithm, stream, algorithm_name=name, stream_name=dataset)
            result.runs.append(metrics)
            result.add_series(
                f"{dataset}/{name}", metrics.series("response_time_us", "response time (us)")
            )
            summary_rows.append(
                {
                    "dataset": dataset,
                    "algorithm": name,
                    "mean_response_us": round(metrics.mean_response_time_us, 2),
                }
            )
    result.add_table("summary", summary_rows)
    result.metadata["speedups"] = _speedup_table(summary_rows, "mean_response_us", invert=False)
    return result


#: Competitors plotted in each panel of Figure 9 (besides EDMStream).
FIG9_PAPER_SERIES = {
    "KDDCUP99": ("D-Stream", "DenStream", "DBSTREAM"),
    "CoverType": ("D-Stream", "DBSTREAM"),
    "PAMAP2": ("D-Stream", "DBSTREAM"),
}


def gate_fig9(result: ExperimentResult) -> None:
    """EDMStream responds faster than every competitor the paper plots."""
    summary = result.tables["summary"]
    for dataset, competitors in FIG9_PAPER_SERIES.items():
        edm = next(
            row["mean_response_us"]
            for row in summary
            if row["dataset"] == dataset and row["algorithm"] == "EDMStream"
        )
        best_other = min(
            row["mean_response_us"]
            for row in summary
            if row["dataset"] == dataset and row["algorithm"] in competitors
        )
        assert edm < best_other, (
            f"EDMStream should respond faster than every competitor the paper "
            f"plots on {dataset} (EDMStream {edm} µs vs best competitor {best_other} µs)"
        )


register(
    "fig9",
    "Figure 9 — response time vs stream length",
    experiment_response_time,
    tags=("paper", "efficiency"),
    params=lambda: {
        "points": 6000,
        "datasets": ("KDDCUP99", "CoverType", "PAMAP2"),
        "algorithms": ("EDMStream", "D-Stream", "DenStream", "DBSTREAM"),
        "checkpoint_every": 1500,
    },
    gate=gate_fig9,
)


def experiment_throughput(
    datasets: Sequence[str] = ("KDDCUP99", "CoverType", "PAMAP2"),
    algorithms: Sequence[str] = ("EDMStream", "D-Stream", "DenStream", "DBSTREAM", "MR-Stream"),
    n_points: int = 10000,
    checkpoint_every: int = 2500,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Figure 10: throughput (points per second) vs stream length.

    The paper's stress test removes the arrival-rate limit but still requires
    the clustering result to stay up to date (that is what "response to a
    cluster update" means), so the headline metric reported here is the
    *real-time throughput* — the number of points per second an algorithm can
    sustain while keeping its clustering current, i.e. the reciprocal of the
    Figure 9 response time.  The amortised throughput (offline step paid only
    once per ``checkpoint_every`` points) is reported alongside for
    reference.
    """
    result = ExperimentResult(
        experiment_id="fig10",
        description="Throughput (points/second) vs stream length",
    )
    summary_rows = []
    for dataset in datasets:
        stream = make_real_stream(dataset, n_points, seed=seed)
        radius = choose_radius(stream)
        competitors = default_algorithms(stream, radius=radius, include=algorithms)
        runner = StreamRunner(checkpoint_every=checkpoint_every, evaluate_quality=False)
        for name, algorithm in competitors.items():
            metrics = runner.run(algorithm, stream, algorithm_name=name, stream_name=dataset)
            result.runs.append(metrics)
            realtime = SeriesResult(
                name=name,
                x=[float(c) for c in metrics.checkpoints],
                y=[1e6 / max(us, 1e-9) for us in metrics.response_time_us],
                x_label="stream length",
                y_label="points per second (clustering kept current)",
            )
            result.add_series(f"{dataset}/{name}", realtime)
            result.add_series(
                f"{dataset}/{name}/amortised",
                metrics.series("throughput", "points per second (offline step amortised)"),
            )
            summary_rows.append(
                {
                    "dataset": dataset,
                    "algorithm": name,
                    "mean_throughput": round(realtime.mean(), 1),
                    "mean_amortised_throughput": round(metrics.mean_throughput, 1),
                }
            )
    result.add_table("summary", summary_rows)
    result.metadata["speedups"] = _speedup_table(summary_rows, "mean_throughput", invert=True)
    return result


#: Competitors EDMStream must beat per dataset in Figure 10 (DenStream
#: completes on our small surrogates, unlike at the paper's scale, so it
#: is asserted only on KDDCUP99 — the dataset where the paper also shows
#: it surviving at 1 K/s).
FIG10_PAPER_SERIES = {
    "KDDCUP99": ("D-Stream", "DenStream", "DBSTREAM", "MR-Stream"),
    "CoverType": ("D-Stream", "DBSTREAM", "MR-Stream"),
    "PAMAP2": ("D-Stream", "DBSTREAM", "MR-Stream"),
}


def gate_fig10(result: ExperimentResult) -> None:
    """EDMStream sustains a higher real-time throughput than the competitors."""
    summary = result.tables["summary"]
    for dataset, competitors in FIG10_PAPER_SERIES.items():
        edm = next(
            row["mean_throughput"]
            for row in summary
            if row["dataset"] == dataset and row["algorithm"] == "EDMStream"
        )
        assert edm > 0
        best_other = max(
            row["mean_throughput"]
            for row in summary
            if row["dataset"] == dataset and row["algorithm"] in competitors
        )
        assert edm > best_other, (
            f"EDMStream should sustain a higher real-time throughput than the "
            f"competitors on {dataset} (EDMStream {edm} pt/s vs best {best_other} pt/s)"
        )


register(
    "fig10",
    "Figure 10 — throughput",
    experiment_throughput,
    tags=("paper", "efficiency"),
    params=lambda: {
        "points": 6000,
        "datasets": ("KDDCUP99", "CoverType", "PAMAP2"),
        "algorithms": (
            "EDMStream",
            "D-Stream",
            "DenStream",
            "DBSTREAM",
            "MR-Stream",
        ),
        "checkpoint_every": 1500,
    },
    gate=gate_fig10,
)


def experiment_batch_throughput(
    datasets: Sequence[str] = ("SDS", "HDS-10d", "KDDCUP99", "CoverType", "PAMAP2"),
    batch_sizes: Sequence[int] = (64, 256),
    n_points: int = 16000,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Figure 10 extension: micro-batch vs sequential ingestion throughput.

    For each workload an identical EDMStream configuration ingests the same
    stream once through the sequential ``learn_one`` loop and once per batch
    size through the :class:`~repro.core.batch.BatchIngestor` path, timing
    pure ingestion wall-clock.  Because the two paths produce identical
    clusterings (see ``tests/test_batch_ingest.py``), the throughput ratio
    isolates the cost of per-point interpreter overhead that micro-batching
    amortises.  ``SDS`` and ``HDS-10d`` are the paper's own synthetic
    workloads; the three real-dataset surrogates are reported alongside.
    """
    import time as _time

    result = ExperimentResult(
        experiment_id="fig10_batch",
        description="Micro-batch vs sequential ingestion throughput (points/second)",
    )
    rows = []
    for dataset in datasets:
        if dataset == "SDS":
            stream = SDSGenerator(
                n_points=n_points, rate=1000.0, seed=7 if seed is None else seed
            ).generate()
            radius = 0.3
        elif dataset.startswith("HDS"):
            dimension = int(dataset.split("-")[1].rstrip("d")) if "-" in dataset else 10
            stream = HDSGenerator(
                dimension=dimension, n_points=n_points, **_seed_kw(seed)
            ).generate()
            radius = HDSGenerator.paper_radius(dimension)
        else:
            stream = make_real_stream(dataset, n_points, seed=seed)
            radius = choose_radius(stream)

        def make_model() -> EDMStream:
            return EDMStream(radius=radius, beta=0.0021, stream_rate=stream.rate)

        timings: Dict[str, float] = {}
        for mode, batch_size in [("sequential", None)] + [
            (f"batch-{size}", size) for size in batch_sizes
        ]:
            model = make_model()
            started = _time.perf_counter()
            model.learn_many(stream, batch_size=batch_size)
            elapsed = _time.perf_counter() - started
            timings[mode] = elapsed
            rows.append(
                {
                    "dataset": dataset,
                    "mode": mode,
                    "synthetic": dataset in ("SDS",) or dataset.startswith("HDS"),
                    "points_per_second": round(len(stream) / elapsed, 1),
                    "speedup_vs_sequential": round(timings["sequential"] / elapsed, 3),
                    "clusters": model.n_clusters,
                    "active_cells": model.n_active_cells,
                    "cell_state_bytes": model.memory_footprint()["total"],
                    "arena_bytes": model._cells.nbytes(),
                }
            )
        series = SeriesResult(
            name=dataset,
            x=[0] + list(batch_sizes),
            y=[len(stream) / timings[mode] for mode in timings],
            x_label="batch size (0 = sequential)",
            y_label="points per second",
        )
        result.add_series(dataset, series)
    result.add_table("summary", rows)
    result.metadata["n_points"] = n_points
    result.metadata["batch_sizes"] = list(batch_sizes)
    return result


def params_fig10_batch() -> Dict[str, Any]:
    """Workload knobs: ``BENCH_FIG10_POINTS``, ``BENCH_FIG10_DATASETS``."""
    params: Dict[str, Any] = {"points": _env_int("BENCH_FIG10_POINTS", 16000)}
    datasets_env = os.environ.get("BENCH_FIG10_DATASETS")
    if datasets_env:
        params["datasets"] = _env_tuple("BENCH_FIG10_DATASETS", "")
    return params


def payload_fig10_batch(result: ExperimentResult) -> Dict[str, Any]:
    """The ``BENCH_throughput.json`` payload (fields pinned by ``tests/test_fleet.py``)."""
    return {
        "experiment": "fig10_batch_ingestion",
        "n_points": result.metadata["n_points"],
        "batch_sizes": result.metadata["batch_sizes"],
        "min_speedup_required_on_synthetic": _env_float("BENCH_BATCH_MIN_SPEEDUP", 6.0),
        "rows": result.tables["summary"],
    }


def gate_fig10_batch(result: ExperimentResult) -> None:
    """Micro-batch ingestion must not be slower, and must hit the speedup bar.

    At batch size 256 the batch path must never be slower than the
    sequential path, and on the paper's synthetic workloads (SDS, HDS) it
    must reach ``BENCH_BATCH_MIN_SPEEDUP`` (default 6×, reflecting the
    structure-of-arrays batch engine; the CI job lowers this to 2× because
    its runners are small and noisy).  The real-dataset surrogates are
    dominated by the irreducible nearest-seed scan both paths share, so
    they gate only on "not slower".  The not-slower floor sits slightly
    below 1.0 because the gate compares two single wall-clock runs.
    """
    min_speedup = _env_float("BENCH_BATCH_MIN_SPEEDUP", 6.0)
    not_slower_floor = _env_float("BENCH_BATCH_NOT_SLOWER_FLOOR", 0.9)
    by_dataset: Dict[str, Dict[str, Any]] = {}
    for row in result.tables["summary"]:
        by_dataset.setdefault(row["dataset"], {})[row["mode"]] = row
    for dataset, modes in by_dataset.items():
        batch = modes.get("batch-256")
        if batch is None:
            continue
        speedup = batch["speedup_vs_sequential"]
        assert speedup >= not_slower_floor, (
            f"batch ingestion must not be slower than sequential on {dataset} "
            f"(got {speedup}x at batch_size=256, floor {not_slower_floor}x)"
        )
        if batch["synthetic"]:
            assert speedup >= min_speedup, (
                f"batch ingestion should reach {min_speedup}x over sequential on "
                f"the synthetic workload {dataset} (got {speedup}x at batch_size=256)"
            )


register(
    "fig10_batch",
    "Figure 10 extension — micro-batch vs sequential ingestion throughput",
    experiment_batch_throughput,
    tags=("scale", "bench"),
    params=params_fig10_batch,
    artifact="BENCH_throughput.json",
    payload=payload_fig10_batch,
    gate=gate_fig10_batch,
)


def experiment_query_throughput(
    n_points: int = 16000,
    n_queries: int = 10000,
    batch_sizes: Sequence[int] = (1, 64, 4096),
    seed: int = 7,
) -> ExperimentResult:
    """Serving-side query throughput of the snapshot API on the SDS workload.

    After ingesting the SDS stream, a fixed query set is answered through
    the per-point ``model.predict_one`` loop (what a caller predating
    ``predict_many`` pays: one Python call and one single-row kernel
    invocation per query) and through the vectorised
    ``ClusterSnapshot.predict_many`` at several batch sizes (each batch size
    chunks the query set, mimicking request batching in a serving layer).
    Both run off the same published snapshot — ``predict_one`` is
    snapshot-served too since the ingest/serve split — so the measured gap
    isolates the per-call overhead that batching amortises, and the label
    equality asserted here checks the blocked kernel against the single-row
    path.  Emitted to ``BENCH_query.json`` by the CI benchmark-smoke job,
    which gates on ``predict_many`` never being slower than the per-point
    loop.
    """
    import time as _time

    result = ExperimentResult(
        experiment_id="query_throughput",
        description="Snapshot predict_many vs per-point predict_one loop (points/second)",
    )
    stream = SDSGenerator(n_points=n_points, rate=1000.0, seed=seed).generate()
    model = EDMStream(radius=0.3, beta=0.0021, stream_rate=stream.rate)
    model.learn_many(stream)
    snapshot = model.request_clustering()

    rng = np.random.default_rng(seed)
    indices = rng.integers(0, len(stream), size=n_queries)
    queries = [stream[int(i)].values for i in indices]

    started = _time.perf_counter()
    loop_labels = [model.predict_one(q) for q in queries]
    loop_seconds = _time.perf_counter() - started

    rows = [
        {
            "mode": "predict_one-loop",
            "batch_size": 0,
            "points_per_second": round(n_queries / loop_seconds, 1),
            "speedup_vs_loop": 1.0,
        }
    ]
    for batch_size in batch_sizes:
        started = _time.perf_counter()
        batch_labels: List[int] = []
        for start in range(0, n_queries, batch_size):
            batch_labels.extend(
                int(v) for v in snapshot.predict_many(queries[start : start + batch_size])
            )
        elapsed = _time.perf_counter() - started
        if batch_labels != [int(v) for v in loop_labels]:
            raise AssertionError(
                "batched predict_many disagrees with the single-row predict_one path"
            )
        rows.append(
            {
                "mode": f"predict_many-{batch_size}",
                "batch_size": batch_size,
                "points_per_second": round(n_queries / elapsed, 1),
                "speedup_vs_loop": round(loop_seconds / elapsed, 3),
            }
        )
    result.add_table("summary", rows)
    result.add_series(
        "query_throughput",
        SeriesResult(
            name="snapshot queries",
            x=[row["batch_size"] for row in rows],
            y=[row["points_per_second"] for row in rows],
            x_label="query batch size (0 = per-point loop)",
            y_label="points per second",
        ),
    )
    result.metadata["n_points"] = n_points
    result.metadata["n_queries"] = n_queries
    result.metadata["snapshot"] = snapshot.summary()
    return result


def params_query() -> Dict[str, Any]:
    """Workload knobs: ``BENCH_QUERY_POINTS``, ``BENCH_QUERY_QUERIES``."""
    return {
        "points": _env_int("BENCH_QUERY_POINTS", 16000),
        "n_queries": _env_int("BENCH_QUERY_QUERIES", 10000),
        "batch_sizes": (1, 64, 4096),
    }


def payload_query(result: ExperimentResult) -> Dict[str, Any]:
    """The ``BENCH_query.json`` payload (fields pinned by ``tests/test_fleet.py``)."""
    return {
        "experiment": "query_throughput",
        "n_points": result.metadata["n_points"],
        "n_queries": result.metadata["n_queries"],
        "snapshot": result.metadata["snapshot"],
        "min_speedup_required_at_largest_batch": _env_float(
            "BENCH_QUERY_MIN_SPEEDUP", 5.0
        ),
        "rows": result.tables["summary"],
    }


def gate_query(result: ExperimentResult) -> None:
    """Snapshot ``predict_many`` beats the per-point loop.

    At batch sizes > 1 it must never be slower than the loop
    (``BENCH_QUERY_NOT_SLOWER_FLOOR``, default 1.0) and at the largest
    batch size it must reach ``BENCH_QUERY_MIN_SPEEDUP`` (default 5×, the
    serving tier's original acceptance bar).  Batch size 1 is the degenerate case and is
    reported but not gated.
    """
    min_speedup = _env_float("BENCH_QUERY_MIN_SPEEDUP", 5.0)
    not_slower_floor = _env_float("BENCH_QUERY_NOT_SLOWER_FLOOR", 1.0)
    gated = [row for row in result.tables["summary"] if row["batch_size"] > 1]
    assert gated, "no gated predict_many rows in the summary"
    for row in gated:
        assert row["speedup_vs_loop"] >= not_slower_floor, (
            f"snapshot predict_many must not be slower than the per-point loop "
            f"(got {row['speedup_vs_loop']}x at batch size {row['batch_size']}, "
            f"floor {not_slower_floor}x)"
        )
    largest = max(gated, key=lambda row: row["batch_size"])
    assert largest["speedup_vs_loop"] >= min_speedup, (
        f"snapshot predict_many should reach {min_speedup}x over the per-point "
        f"loop at batch size {largest['batch_size']} "
        f"(got {largest['speedup_vs_loop']}x)"
    )


register(
    "query",
    "Serving extension — snapshot predict_many vs per-point query loop",
    experiment_query_throughput,
    tags=("scale", "bench"),
    params=params_query,
    artifact="BENCH_query.json",
    payload=payload_query,
    gate=gate_query,
)


# --------------------------------------------------------------------- #
# Serving tier — shared-memory snapshot fan-out across query workers
# --------------------------------------------------------------------- #
def experiment_serving(
    n_points: int = 4000,
    worker_counts: Sequence[int] = (1, 4, 8),
    measure_s: float = 2.0,
    warmup_s: float = 0.5,
    query_batch: int = 256,
    latency_queries: int = 200,
    seed: int = 7,
) -> ExperimentResult:
    """Serving tier: sustained QPS and latency of the shared-memory fan-out.

    For each worker count a full :class:`~repro.serving.ServingCluster` is
    stood up — one ingest process looping the SDS stream through a live
    ``EDMStream`` and publishing every snapshot into shared memory, plus N
    query workers serving ``predict_many`` off the mapped arrays.  Three
    quantities are measured *while ingestion keeps running*:

    * **sustained QPS** — pipelined batch dispatch with exactly one
      outstanding request per worker (the throughput ceiling of the pipe
      transport: workers never idle waiting for the dispatcher);
    * **per-call latency (p50/p99)** — individual ``predict`` calls issued
      through the asyncio :class:`~repro.serving.MicroBatchFrontend` over a
      :class:`~repro.serving.WorkerPoolBackend` at modest concurrency, i.e.
      what a single interactive caller observes including coalescing delay;
    * **snapshot staleness** — per-answer age of the served snapshot, as
      reported by the worker alongside each reply.

    Workers deliberately run at lower scheduling priority than the ingest
    process (``nice`` +9), so on a saturated box added workers trade query
    throughput against each other, not against ingestion.  Emitted to
    ``BENCH_serving.json`` by ``python -m repro fleet run --id serve``, which gates
    the 4-worker/1-worker scaling ratio and segment hygiene.
    """
    import asyncio as _asyncio
    import time as _time
    from multiprocessing.connection import wait as _conn_wait

    from repro.serving import (
        MicroBatchFrontend,
        ServingCluster,
        WorkerPoolBackend,
        list_segments,
    )

    result = ExperimentResult(
        experiment_id="serving",
        description="Shared-memory snapshot fan-out: QPS/latency vs query workers",
    )

    def model_factory():
        return EDMStream(radius=0.3, beta=0.0021, stream_rate=1000.0)

    def stream_factory():
        return SDSGenerator(n_points=n_points, rate=1000.0, seed=seed).generate()

    query_stream = SDSGenerator(n_points=query_batch, rate=1000.0, seed=seed + 2)
    queries = np.asarray([p.values for p in query_stream.generate()])

    def pipelined_qps(cluster):
        """One outstanding batch per worker; count replies in the window."""
        connections = list(cluster.connections)
        for conn in connections:
            conn.send(("predict", queries, False))
        answered = 0
        staleness: List[float] = []
        measure_from = _time.perf_counter() + warmup_s
        deadline = measure_from + measure_s
        while _time.perf_counter() < deadline:
            for conn in _conn_wait(connections, timeout=0.2):
                reply = conn.recv()
                if reply[0] == "ok" and _time.perf_counter() >= measure_from:
                    answered += len(reply[1])
                    staleness.append(float(reply[3]))
                conn.send(("predict", queries, False))
        for conn in connections:  # drain the in-flight tail, uncounted
            if conn.poll(10.0):
                conn.recv()
        return answered / measure_s, staleness

    async def frontend_latency(cluster):
        backend = WorkerPoolBackend(cluster.connections)
        front = MicroBatchFrontend(backend, max_batch=32, max_delay=0.002)
        gate = _asyncio.Semaphore(8)
        latencies: List[float] = []

        async def one(point):
            async with gate:
                started = _time.perf_counter()
                await front.predict(point)
                latencies.append(_time.perf_counter() - started)

        await _asyncio.gather(
            *(one(queries[i % len(queries)]) for i in range(latency_queries))
        )
        await front.drain()
        return latencies

    rows = []
    for n_workers in worker_counts:
        with ServingCluster(
            model_factory, stream_factory, n_workers=n_workers, chunk_size=256
        ) as cluster:
            cluster.wait_until_serving(timeout_s=60.0)
            qps, staleness = pipelined_qps(cluster)
            latencies = _asyncio.run(frontend_latency(cluster))
            summary = cluster.summary()
            token = cluster.token
        latencies_ms = sorted(1000.0 * value for value in latencies)
        rows.append(
            {
                "workers": n_workers,
                "qps": round(qps, 1),
                "p50_ms": round(latencies_ms[len(latencies_ms) // 2], 3),
                "p99_ms": round(latencies_ms[int(0.99 * (len(latencies_ms) - 1))], 3),
                "staleness_p50_s": (
                    round(float(np.median(staleness)), 4) if staleness else None
                ),
                "staleness_max_s": round(max(staleness), 4) if staleness else None,
                "points_ingested": summary["points_ingested"],
                "snapshot_version": max(
                    w.get("snapshot_version", 0) for w in summary["workers"]
                ),
                "leaked_segments": len(list_segments(token)),
            }
        )

    baseline = next((row["qps"] for row in rows if row["workers"] == 1), None)
    for row in rows:
        row["scaling_vs_1w"] = round(row["qps"] / baseline, 2) if baseline else None
    result.add_table("summary", rows)
    result.add_series(
        "qps",
        SeriesResult(
            name="sustained QPS under ingestion",
            x=[row["workers"] for row in rows],
            y=[row["qps"] for row in rows],
            x_label="query workers",
            y_label="queries per second",
        ),
    )
    result.metadata["n_points"] = n_points
    result.metadata["query_batch"] = query_batch
    result.metadata["measure_s"] = measure_s
    return result


def params_serve() -> Dict[str, Any]:
    """Workload knobs: ``BENCH_SERVING_POINTS`` / ``_WORKERS`` / ``_MEASURE_S``."""
    return {
        "points": _env_int("BENCH_SERVING_POINTS", 4000),
        "worker_counts": tuple(
            int(v) for v in _env_tuple("BENCH_SERVING_WORKERS", "1,4,8")
        ),
        "measure_s": _env_float("BENCH_SERVING_MEASURE_S", 2.0),
    }


def payload_serve(result: ExperimentResult) -> Dict[str, Any]:
    """The ``BENCH_serving.json`` payload (fields pinned by ``tests/test_fleet.py``)."""
    return {
        "experiment": "serving",
        "n_points": result.metadata["n_points"],
        "query_batch": result.metadata["query_batch"],
        "measure_s": result.metadata["measure_s"],
        "min_scaling_required_at_4_workers": _env_float("BENCH_SERVING_MIN_SCALING", 2.5),
        "min_qps_required": _env_float("BENCH_SERVING_MIN_QPS", 20000),
        "rows": result.tables["summary"],
    }


def gate_serve(result: ExperimentResult) -> None:
    """Serving fan-out: scaling, QPS floor, and shared-memory hygiene.

    When both the 1- and 4-worker rows are measured, the 4-worker cluster
    must sustain ``BENCH_SERVING_MIN_SCALING`` (default 2.5×) the
    single-worker QPS; every row must clear ``BENCH_SERVING_MIN_QPS``
    (default 20 000 queries/s); zero leaked ``/dev/shm`` segments per row
    and zero ``edmserv-*`` segments globally after the gate.
    """
    from repro.serving import list_segments

    min_scaling = _env_float("BENCH_SERVING_MIN_SCALING", 2.5)
    min_qps = _env_float("BENCH_SERVING_MIN_QPS", 20000)
    summary = result.tables["summary"]
    for row in summary:
        assert row["leaked_segments"] == 0, (
            f"{row['workers']}-worker cluster left {row['leaked_segments']} "
            f"shared-memory segments behind after shutdown"
        )
        assert row["qps"] >= min_qps, (
            f"{row['workers']}-worker cluster sustained only {row['qps']:.0f} "
            f"queries/s (floor {min_qps:.0f})"
        )
        assert row["staleness_max_s"] is not None and row["staleness_max_s"] < 60.0, (
            f"{row['workers']}-worker cluster served implausibly stale snapshots "
            f"({row['staleness_max_s']}s old)"
        )
    by_workers = {row["workers"]: row for row in summary}
    if 1 in by_workers and 4 in by_workers:
        scaling = by_workers[4]["scaling_vs_1w"]
        assert scaling >= min_scaling, (
            f"4 query workers should sustain >= {min_scaling}x the single-worker "
            f"QPS (got {scaling}x: {by_workers[4]['qps']:.0f} vs "
            f"{by_workers[1]['qps']:.0f} queries/s)"
        )
    leaked = list_segments()
    assert leaked == [], f"leaked shared-memory segments at exit: {leaked}"


register(
    "serve",
    "Serving tier — shared-memory snapshot fan-out QPS/latency vs workers",
    experiment_serving,
    tags=("scale", "bench"),
    params=params_serve,
    artifact="BENCH_serving.json",
    payload=payload_serve,
    gate=gate_serve,
)


def _speedup_table(
    rows: List[Dict[str, Any]], value_key: str, invert: bool
) -> List[Dict[str, Any]]:
    """EDMStream's advantage over the best competitor, per dataset.

    ``invert=False`` treats smaller as better (times); ``invert=True`` treats
    larger as better (throughput).
    """
    speedups = []
    datasets = {row["dataset"] for row in rows}
    for dataset in sorted(datasets):
        edm = [r[value_key] for r in rows if r["dataset"] == dataset and r["algorithm"] == "EDMStream"]
        others = [
            r[value_key]
            for r in rows
            if r["dataset"] == dataset and r["algorithm"] != "EDMStream"
        ]
        if not edm or not others:
            continue
        if invert:
            best_other = max(others)
            ratio = edm[0] / best_other if best_other else float("inf")
        else:
            best_other = min(others)
            ratio = best_other / edm[0] if edm[0] else float("inf")
        speedups.append(
            {"dataset": dataset, "edmstream_vs_best_competitor": round(ratio, 2)}
        )
    return speedups


# --------------------------------------------------------------------- #
# Figure 11 — filtering ablation
# --------------------------------------------------------------------- #
def experiment_filtering(
    datasets: Sequence[str] = ("KDDCUP99", "CoverType", "PAMAP2"),
    n_points: int = 20000,
    checkpoint_every: int = 2500,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Figure 11: accumulated dependency-update time without/with the filters.

    The time is the model's ``dependency`` telemetry phase.  Each variant
    replays the stream three times on a fresh model and reports its
    fastest replay, as the ``obs`` experiment reports its best trial: one
    replay's time swings by a third on a shared machine.  The filter
    counters are the same in every replay.
    """
    variants = {
        "wf": dict(enable_density_filter=False, enable_triangle_filter=False),
        "df": dict(enable_density_filter=True, enable_triangle_filter=False),
        "df+tif": dict(enable_density_filter=True, enable_triangle_filter=True),
    }
    result = ExperimentResult(
        experiment_id="fig11",
        description="Accumulated dependency-update time (ms) for wf / df / df+tif",
    )

    def dependency_ms(model: EDMStream) -> float:
        return model.obs.phase_totals()["dependency"]["seconds"] * 1e3

    summary_rows = []
    for dataset in datasets:
        stream = make_real_stream(dataset, n_points, seed=seed)
        radius = choose_radius(stream)
        for variant, flags in variants.items():
            best: List[Tuple[int, float]] = []
            for _ in range(3):
                model = EDMStream(radius=radius, stream_rate=stream.rate, telemetry=True, **flags)
                checkpoints = []
                processed = 0
                for point in stream:
                    model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
                    processed += 1
                    if processed % checkpoint_every == 0:
                        checkpoints.append((processed, dependency_ms(model)))
                checkpoints.append((processed, dependency_ms(model)))
                if not best or checkpoints[-1][1] < best[-1][1]:
                    best, stats = checkpoints, model.filter_stats.as_dict()
            series = SeriesResult(
                name=f"{dataset}/{variant}",
                x_label="stream length",
                y_label="accumulated update time (ms)",
            )
            for processed, elapsed_ms in best:
                series.append(processed, elapsed_ms)
            result.add_series(f"{dataset}/{variant}", series)
            summary_rows.append(
                {
                    "dataset": dataset,
                    "variant": variant,
                    "update_time_ms": round(best[-1][1], 2),
                    "distance_computations": stats["distance_computations"],
                    "filter_rate": round(stats["filter_rate"], 4),
                }
            )
    result.add_table("summary", summary_rows)
    return result


def gate_fig11(result: ExperimentResult) -> None:
    """Theorem-1 filtering cuts work; adding Theorem 2 cuts it further."""
    for dataset in ("KDDCUP99", "CoverType", "PAMAP2"):
        rows = {
            r["variant"]: r for r in result.tables["summary"] if r["dataset"] == dataset
        }
        assert rows["df"]["distance_computations"] <= rows["wf"]["distance_computations"]
        assert (
            rows["df+tif"]["distance_computations"] <= rows["df"]["distance_computations"]
        )
        assert rows["df+tif"]["update_time_ms"] <= rows["wf"]["update_time_ms"] * 1.1


register(
    "fig11",
    "Figure 11 — dependency-update filtering ablation",
    experiment_filtering,
    tags=("paper", "efficiency"),
    params=lambda: {
        "points": 8000,
        "datasets": ("KDDCUP99", "CoverType", "PAMAP2"),
        "checkpoint_every": 2000,
    },
    gate=gate_fig11,
)


# --------------------------------------------------------------------- #
# Figure 12 — dimensionality scaling
# --------------------------------------------------------------------- #
def experiment_dimensions(
    dimensions: Sequence[int] = (10, 30, 100, 300),
    algorithms: Sequence[str] = ("EDMStream", "D-Stream", "DenStream", "DBSTREAM", "MR-Stream"),
    n_points: int = 5000,
    checkpoint_every: int = 2500,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Figure 12: response time vs data dimensionality on the HDS streams."""
    result = ExperimentResult(
        experiment_id="fig12",
        description="Response time (µs per point) vs data dimensionality (HDS)",
    )
    per_algorithm: Dict[str, SeriesResult] = {
        name: SeriesResult(name=name, x_label="dimensions", y_label="response time (us)")
        for name in algorithms
    }
    rows = []
    for dimension in dimensions:
        stream = HDSGenerator(
            dimension=dimension, n_points=n_points, **_seed_kw(seed)
        ).generate()
        radius = HDSGenerator.paper_radius(dimension)
        competitors = default_algorithms(stream, radius=radius, include=algorithms)
        runner = StreamRunner(checkpoint_every=checkpoint_every, evaluate_quality=False)
        for name, algorithm in competitors.items():
            metrics = runner.run(algorithm, stream, algorithm_name=name, stream_name=stream.name)
            result.runs.append(metrics)
            per_algorithm[name].append(dimension, metrics.mean_response_time_us)
            rows.append(
                {
                    "dimensions": dimension,
                    "algorithm": name,
                    "mean_response_us": round(metrics.mean_response_time_us, 2),
                }
            )
    for name, series in per_algorithm.items():
        result.add_series(name, series)
    result.add_table("summary", rows)
    return result


def gate_fig12(result: ExperimentResult) -> None:
    """Response time grows with the dimensionality (more per-distance work)."""
    series = result.series["EDMStream"]
    assert series.y[-1] >= series.y[0]
    assert all(y > 0 for y in series.y)


register(
    "fig12",
    "Figure 12 — response time vs dimensionality",
    experiment_dimensions,
    tags=("paper", "efficiency"),
    params=lambda: {
        "points": 3000,
        "dimensions": (10, 30, 100, 300),
        "algorithms": (
            "EDMStream",
            "D-Stream",
            "DenStream",
            "DBSTREAM",
            "MR-Stream",
        ),
        "checkpoint_every": 1000,
    },
    gate=gate_fig12,
)


# --------------------------------------------------------------------- #
# Figures 13 and 14 — cluster quality
# --------------------------------------------------------------------- #
def experiment_quality(
    datasets: Sequence[str] = ("KDDCUP99", "CoverType", "PAMAP2"),
    algorithms: Sequence[str] = ("EDMStream", "D-Stream", "DenStream", "DBSTREAM"),
    n_points: int = 10000,
    checkpoint_every: int = 2500,
    quality_window: int = 400,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Figure 13: CMM over the stream for EDMStream and the baselines."""
    result = ExperimentResult(
        experiment_id="fig13",
        description="Cluster quality (CMM) vs stream length",
    )
    rows = []
    for dataset in datasets:
        stream = make_real_stream(dataset, n_points, seed=seed)
        radius = choose_radius(stream)
        competitors = default_algorithms(stream, radius=radius, include=algorithms)
        runner = StreamRunner(
            checkpoint_every=checkpoint_every,
            evaluate_quality=True,
            quality_window=quality_window,
        )
        for name, algorithm in competitors.items():
            metrics = runner.run(algorithm, stream, algorithm_name=name, stream_name=dataset)
            result.runs.append(metrics)
            result.add_series(f"{dataset}/{name}", metrics.series("cmm", "CMM"))
            rows.append(
                {
                    "dataset": dataset,
                    "algorithm": name,
                    "mean_cmm": round(metrics.mean_cmm, 4),
                }
            )
    result.add_table("summary", rows)
    return result


def gate_fig13(result: ExperimentResult) -> None:
    """EDMStream's CMM is comparable to the best baseline on each dataset."""
    rows = result.tables["summary"]
    for dataset in {row["dataset"] for row in rows}:
        per_dataset = [r for r in rows if r["dataset"] == dataset]
        best = max(r["mean_cmm"] for r in per_dataset)
        edm = [r["mean_cmm"] for r in per_dataset if r["algorithm"] == "EDMStream"][0]
        assert edm >= best - 0.35, (
            f"EDMStream's CMM on {dataset} should be comparable to the best baseline"
        )


register(
    "fig13",
    "Figure 13 — cluster quality (CMM)",
    experiment_quality,
    tags=("paper", "quality"),
    params=lambda: {
        "points": 6000,
        "datasets": ("KDDCUP99", "CoverType", "PAMAP2"),
        "algorithms": ("EDMStream", "D-Stream", "DenStream", "DBSTREAM"),
        "checkpoint_every": 2000,
        "quality_window": 300,
    },
    gate=gate_fig13,
)


def experiment_stream_rate(
    rates: Sequence[float] = (1000.0, 5000.0, 10000.0),
    dataset: str = "CoverType",
    n_points: int = 10000,
    checkpoint_every: int = 2500,
    quality_window: int = 400,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Figure 14: EDMStream's CMM when the same stream arrives at different rates."""
    result = ExperimentResult(
        experiment_id="fig14",
        description="EDMStream cluster quality (CMM) at different stream rates",
    )
    base_stream = make_real_stream(dataset, n_points, seed=seed)
    radius = choose_radius(base_stream)
    rows = []
    for rate in rates:
        stream = base_stream.with_rate(rate)
        model = EDMStream(radius=radius, stream_rate=rate)
        runner = StreamRunner(
            checkpoint_every=checkpoint_every,
            evaluate_quality=True,
            quality_window=quality_window,
        )
        metrics = runner.run(
            model, stream, algorithm_name=f"{int(rate)}pt/s", stream_name=dataset
        )
        result.runs.append(metrics)
        result.add_series(f"{int(rate)}pt_s", metrics.series("cmm", "CMM"))
        rows.append(
            {"rate": int(rate), "mean_cmm": round(metrics.mean_cmm, 4)}
        )
    result.add_table("summary", rows)
    return result


def gate_fig14(result: ExperimentResult) -> None:
    """Quality stays stable when the stream is replayed at higher rates."""
    values = [row["mean_cmm"] for row in result.tables["summary"]]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert max(values) - min(values) < 0.35, "CMM should be stable across stream rates"


register(
    "fig14",
    "Figure 14 — cluster quality vs stream rate",
    experiment_stream_rate,
    tags=("paper", "quality"),
    params=lambda: {
        "points": 6000,
        "rates": (1000.0, 5000.0, 10000.0),
        "dataset": "CoverType",
        "checkpoint_every": 2000,
        "quality_window": 300,
    },
    gate=gate_fig14,
)


# --------------------------------------------------------------------- #
# Figure 16 — outlier reservoir size
# --------------------------------------------------------------------- #
def experiment_reservoir(
    rates: Sequence[float] = (1000.0, 5000.0, 10000.0),
    datasets: Sequence[str] = ("CoverType", "PAMAP2"),
    n_points: int = 10000,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Figure 16: measured outlier-reservoir size vs its theoretical upper bound."""
    result = ExperimentResult(
        experiment_id="fig16",
        description="Outlier reservoir size (measured) vs theoretical upper bound",
    )
    rows = []
    for dataset in datasets:
        base_stream = make_real_stream(dataset, n_points, seed=seed)
        radius = choose_radius(base_stream)
        for rate in rates:
            stream = base_stream.with_rate(rate)
            model = EDMStream(radius=radius, stream_rate=rate)
            for point in stream:
                model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
            series = SeriesResult(
                name=f"{dataset}/{int(rate)}pt_s",
                x_label="time (s)",
                y_label="reservoir size (cells)",
            )
            for time_point, size in model.reservoir_size_history:
                series.append(time_point, size)
            result.add_series(f"{dataset}/{int(rate)}pt_s", series)
            measured_max = max((s for _, s in model.reservoir_size_history), default=0)
            rows.append(
                {
                    "dataset": dataset,
                    "rate": int(rate),
                    "max_measured_size": measured_max,
                    "upper_bound": round(model.reservoir.size_upper_bound, 1),
                    "within_bound": measured_max <= model.reservoir.size_upper_bound,
                }
            )
    result.add_table("summary", rows)
    return result


def gate_fig16(result: ExperimentResult) -> None:
    """Measured reservoir sizes respect the Theorem-3 upper bound."""
    for row in result.tables["summary"]:
        assert row["within_bound"], (
            f"measured reservoir size exceeded the Theorem-3 bound on {row['dataset']}"
        )
        assert row["max_measured_size"] <= row["upper_bound"]


register(
    "fig16",
    "Figure 16 — outlier reservoir size",
    experiment_reservoir,
    tags=("paper", "efficiency"),
    params=lambda: {
        "points": 6000,
        "rates": (1000.0, 5000.0, 10000.0),
        "datasets": ("CoverType", "PAMAP2"),
    },
    gate=gate_fig16,
)


# --------------------------------------------------------------------- #
# Figure 17 — effect of the cluster-cell radius r
# --------------------------------------------------------------------- #
def experiment_radius(
    percentiles: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
    dataset: str = "PAMAP2",
    n_points: int = 10000,
    checkpoint_every: int = 2500,
    quality_window: int = 400,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Figure 17: cluster quality and response time when varying r."""
    result = ExperimentResult(
        experiment_id="fig17",
        description="Effect of the cluster-cell radius r (CMM and response time)",
    )
    stream = make_real_stream(dataset, n_points, seed=seed)
    rows = []
    for percentile in percentiles:
        radius = choose_radius(stream, percentile=percentile)
        model = EDMStream(radius=radius, stream_rate=stream.rate)
        runner = StreamRunner(
            checkpoint_every=checkpoint_every,
            evaluate_quality=True,
            quality_window=quality_window,
        )
        label = f"{percentile}%"
        metrics = runner.run(model, stream, algorithm_name=label, stream_name=dataset)
        result.runs.append(metrics)
        result.add_series(f"cmm/{label}", metrics.series("cmm", "CMM"))
        result.add_series(
            f"response/{label}", metrics.series("response_time_us", "response time (us)")
        )
        rows.append(
            {
                "percentile": label,
                "radius": round(radius, 4),
                "mean_cmm": round(metrics.mean_cmm, 4),
                "mean_response_us": round(metrics.mean_response_time_us, 2),
                "active_cells": model.n_active_cells,
                # Finer cells spread the same mass over more cluster-cells, so
                # the *total* cell count is the monotone quantity; the number
                # of cells above the (radius-independent) density threshold
                # can go either way.
                "total_cells": model.n_active_cells + model.n_inactive_cells,
            }
        )
    result.add_table("summary", rows)
    return result


def gate_fig17(result: ExperimentResult) -> None:
    """Smaller radii yield more, finer cluster-cells; quality stays usable."""
    rows = result.tables["summary"]
    assert rows[0]["radius"] <= rows[-1]["radius"]
    assert rows[0]["total_cells"] >= rows[-1]["total_cells"]
    assert all(row["mean_response_us"] > 0 for row in rows)
    assert all(0.0 <= row["mean_cmm"] <= 1.0 for row in rows)


register(
    "fig17",
    "Figure 17 — effect of the cluster-cell radius",
    experiment_radius,
    tags=("paper", "quality"),
    params=lambda: {
        "points": 6000,
        "percentiles": (0.5, 1.0, 1.5, 2.0),
        "dataset": "PAMAP2",
        "checkpoint_every": 2000,
        "quality_window": 300,
    },
    gate=gate_fig17,
)


# --------------------------------------------------------------------- #
# Ablation — incremental DP-Tree vs periodic batch DP
# --------------------------------------------------------------------- #
def experiment_dptree_ablation(
    dataset: str = "CoverType",
    n_points: int = 10000,
    checkpoint_every: int = 2500,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """DP-Tree ablation: EDMStream vs the same cells with periodic batch DP."""
    result = ExperimentResult(
        experiment_id="ablation_dptree",
        description="Incremental DP-Tree maintenance vs periodic batch DP reclustering",
    )
    stream = make_real_stream(dataset, n_points, seed=seed)
    radius = choose_radius(stream)
    competitors = default_algorithms(
        stream, radius=radius, include=("EDMStream", "Periodic-DP")
    )
    runner = StreamRunner(checkpoint_every=checkpoint_every, evaluate_quality=False)
    rows = []
    for name, algorithm in competitors.items():
        metrics = runner.run(algorithm, stream, algorithm_name=name, stream_name=dataset)
        result.runs.append(metrics)
        result.add_series(name, metrics.series("response_time_us", "response time (us)"))
        rows.append(
            {
                "algorithm": name,
                "mean_response_us": round(metrics.mean_response_time_us, 2),
                "mean_clustering_request_ms": round(
                    sum(metrics.clustering_request_ms) / max(1, len(metrics.clustering_request_ms)), 3
                ),
            }
        )
    result.add_table("summary", rows)
    return result


def gate_ablation(result: ExperimentResult) -> None:
    """Incremental DP-Tree maintenance answers updates faster than batch DP."""
    rows = {row["algorithm"]: row for row in result.tables["summary"]}
    assert rows["EDMStream"]["mean_response_us"] < rows["Periodic-DP"]["mean_response_us"]


register(
    "ablation",
    "Ablation — incremental DP-Tree vs periodic batch DP",
    experiment_dptree_ablation,
    tags=("paper", "ablation"),
    params=lambda: {
        "points": 6000,
        "dataset": "CoverType",
        "checkpoint_every": 1500,
    },
    gate=gate_ablation,
)


def _memory_stream(dataset: str, n_points: int, seed: int = 7) -> Tuple[DataStream, float]:
    """Workloads of the bounded-memory experiment: SDS, HDS, gradual drift.

    Every workload carries background noise: sparse outlier cells are the
    cold mass the bounded tier exists to evict, and a noiseless mixture
    has no cold tail for a cap to reclaim.
    """
    if dataset == "SDS":
        stream = SDSGenerator(
            n_points=n_points, rate=1000.0, noise_fraction=0.05, seed=seed
        ).generate()
        return stream, 0.3
    if dataset.startswith("HDS"):
        dimension = int(dataset.split("-")[1].rstrip("d")) if "-" in dataset else 10
        # center_spread of ~10 grid boxes keeps the clusters separated at the
        # paper radius (the default spread of one box merges them all), so the
        # footprint splits into a hot cluster core plus an evictable noise tail.
        stream = HDSGenerator(
            dimension=dimension,
            n_points=n_points,
            noise_fraction=0.05,
            center_spread=10.0 * HDSGenerator.paper_radius(dimension),
            seed=seed,
        ).generate()
        return stream, HDSGenerator.paper_radius(dimension)
    if dataset == "Drift":
        from repro.streams.drift import GaussianMixture, gradual_drift_stream
        from repro.streams.point import StreamPoint

        before = GaussianMixture(
            centers=((0.0, 0.0), (4.0, 4.0), (0.0, 4.0)), std=0.3, labels=(0, 1, 2)
        )
        after = GaussianMixture(
            centers=((8.0, 8.0), (4.0, -4.0), (8.0, 0.0)), std=0.3, labels=(3, 4, 5)
        )
        stream = gradual_drift_stream(
            before, after, n_points=n_points, rate=1000.0, seed=seed
        )
        rng = np.random.default_rng(seed + 1)
        points = [
            StreamPoint(
                values=tuple(rng.uniform(-6.0, 12.0, size=2)),
                timestamp=point.timestamp,
                label=None,
                point_id=point.point_id,
            )
            if rng.random() < 0.05
            else point
            for point in stream.points
        ]
        return DataStream(points, name=stream.name, rate=stream.rate), 0.3
    return make_real_stream(dataset, n_points), None  # radius chosen by caller


def _run_memory_mode(
    model: EDMStream,
    stream: DataStream,
    batch_size: int,
    eval_every: int,
    quality_window: int,
) -> Dict[str, Any]:
    """Ingest a stream in eval-sized chunks, scoring quality on trailing windows.

    Returns the run's peak cell-state footprint (tier-sampled in bounded
    mode, chunk-sampled in exact mode), mean CMM / purity over the
    evaluation windows, wall-clock, and the sketch-tier counters.
    """
    import time as _time

    from repro.evaluation.cmm import CMM
    from repro.evaluation.external import purity

    cmm = CMM(outlier_label=model.outlier_label)
    cmm_values: List[float] = []
    purity_values: List[float] = []
    peak = 0
    started = _time.perf_counter()
    for start in range(0, len(stream), eval_every):
        chunk = stream.points[start : start + eval_every]
        model.learn_many(chunk, batch_size=batch_size)
        peak = max(peak, model.memory_footprint()["total"])
        labelled = [p for p in chunk[-quality_window:] if p.label is not None]
        if not labelled:
            continue
        truths = [p.label for p in labelled]
        predicted = [int(label) for label in model.predict_many([p.values for p in labelled])]
        purity_values.append(purity(truths, predicted))
        cmm_values.append(
            cmm.evaluate(
                [p.as_tuple() for p in labelled],
                truths,
                predicted,
                [p.timestamp for p in labelled],
            ).value
        )
    elapsed = _time.perf_counter() - started
    bounded = model.bounded_store
    if bounded is not None:
        peak = max(peak, bounded.peak_bytes)
    run: Dict[str, Any] = {
        "peak_bytes": peak,
        "cmm": sum(cmm_values) / max(1, len(cmm_values)),
        "purity": sum(purity_values) / max(1, len(purity_values)),
        "cmm_series": cmm_values,
        "elapsed_s": elapsed,
        "clusters": model.n_clusters,
    }
    if bounded is not None:
        run.update(bounded.stats())
    return run


def experiment_memory(
    datasets: Sequence[str] = ("SDS", "Drift", "HDS-10d"),
    n_points: int = 50_000,
    cap_fraction: float = 0.5,
    batch_size: int = 256,
    eval_every: int = 10_000,
    quality_window: int = 500,
    seed: int = 7,
) -> ExperimentResult:
    """Bounded-memory tier: bytes/point and quality degradation vs exact mode.

    Each workload is ingested twice through identical configurations: once
    unbounded (exact mode) to establish the peak cell-state footprint and
    reference quality, then again with ``memory_cap_bytes`` set to
    ``cap_fraction`` of that peak, forcing the sketch tier to evict the
    cold tail.  The capped rows report the peak footprint against the cap,
    bytes/point, eviction/revival counters, and CMM/purity deltas vs the
    exact run — the degradation the approximate tier trades for the
    memory bound.  Emitted to ``BENCH_memory.json`` by
    ``python -m repro fleet run --id memory`` and gated in CI.
    """
    result = ExperimentResult(
        experiment_id="memory",
        description="Bounded-memory tier: peak bytes and quality vs exact mode",
    )
    rows = []
    for dataset in datasets:
        stream, radius = _memory_stream(dataset, n_points, seed=seed)
        if radius is None:
            radius = choose_radius(stream)

        exact = EDMStream(radius=radius, beta=0.0021, stream_rate=stream.rate)
        exact_run = _run_memory_mode(exact, stream, batch_size, eval_every, quality_window)
        cap = max(int(exact_run["peak_bytes"] * cap_fraction), 32_768)
        capped = EDMStream(
            radius=radius,
            beta=0.0021,
            stream_rate=stream.rate,
            memory_cap_bytes=cap,
        )
        capped_run = _run_memory_mode(capped, stream, batch_size, eval_every, quality_window)

        def _drop(metric: str) -> float:
            reference = exact_run[metric]
            if reference <= 0:
                return 0.0
            return max(0.0, (reference - capped_run[metric]) / reference)

        rows.append(
            {
                "dataset": dataset,
                "mode": "exact",
                "peak_cell_state_bytes": exact_run["peak_bytes"],
                "bytes_per_point": round(exact_run["peak_bytes"] / len(stream), 2),
                "cmm": round(exact_run["cmm"], 4),
                "purity": round(exact_run["purity"], 4),
                "clusters": exact_run["clusters"],
                "elapsed_s": round(exact_run["elapsed_s"], 3),
            }
        )
        rows.append(
            {
                "dataset": dataset,
                "mode": "capped",
                "memory_cap_bytes": cap,
                "peak_cell_state_bytes": capped_run["peak_bytes"],
                "under_cap": capped_run["peak_bytes"] <= cap,
                "bytes_per_point": round(capped_run["peak_bytes"] / len(stream), 2),
                "cmm": round(capped_run["cmm"], 4),
                "purity": round(capped_run["purity"], 4),
                "cmm_drop": round(_drop("cmm"), 4),
                "purity_drop": round(_drop("purity"), 4),
                "evictions": capped_run["evictions"],
                "revivals": capped_run["revivals"],
                "cap_overflows": capped_run["cap_overflows"],
                "clusters": capped_run["clusters"],
                "elapsed_s": round(capped_run["elapsed_s"], 3),
            }
        )
        for mode, run in (("exact", exact_run), ("capped", capped_run)):
            if run["cmm_series"]:
                result.add_series(
                    f"{dataset}/{mode}",
                    SeriesResult(
                        name=f"{dataset}/{mode}",
                        x=list(range(1, len(run["cmm_series"]) + 1)),
                        y=run["cmm_series"],
                        x_label="evaluation window",
                        y_label="CMM",
                    ),
                )
    result.add_table("summary", rows)
    result.metadata["n_points"] = n_points
    result.metadata["cap_fraction"] = cap_fraction
    result.metadata["batch_size"] = batch_size
    return result


def params_memory() -> Dict[str, Any]:
    """Workload knobs: ``BENCH_MEMORY_POINTS`` / ``_DATASETS`` / ``_CAP_FRACTION``."""
    n_points = _env_int("BENCH_MEMORY_POINTS", 50000)
    return {
        "points": n_points,
        "datasets": _env_tuple("BENCH_MEMORY_DATASETS", "SDS,Drift,HDS-10d"),
        "cap_fraction": _env_float("BENCH_MEMORY_CAP_FRACTION", 0.5),
        "eval_every": max(1000, min(10_000, n_points // 5)),
    }


def payload_memory(result: ExperimentResult) -> Dict[str, Any]:
    """The ``BENCH_memory.json`` payload (fields pinned by ``tests/test_fleet.py``)."""
    return {
        "experiment": "memory",
        "n_points": result.metadata["n_points"],
        "cap_fraction": result.metadata["cap_fraction"],
        "max_quality_drop": _env_float("BENCH_MEMORY_MAX_DROP", 0.10),
        "rows": result.tables["summary"],
    }


def gate_memory(result: ExperimentResult) -> None:
    """Bounded-memory runs stay under cap with bounded quality loss.

    Every capped row must stay at or under its ``memory_cap_bytes`` with
    zero transient enforcement failures, CMM/purity may drop at most
    ``BENCH_MEMORY_MAX_DROP`` (default 10%) relative to the exact run on
    the same workload, and the cap must actually constrain the workload
    (at least one eviction).
    """
    max_drop = _env_float("BENCH_MEMORY_MAX_DROP", 0.10)
    capped = [row for row in result.tables["summary"] if row["mode"] == "capped"]
    assert capped, "experiment_memory produced no capped rows"
    for row in capped:
        dataset = row["dataset"]
        assert row["under_cap"], (
            f"{dataset}: peak cell-state footprint {row['peak_cell_state_bytes']} "
            f"exceeded the cap {row['memory_cap_bytes']} "
            f"({row['bytes_per_point']} bytes/point)"
        )
        assert row["cap_overflows"] == 0, (
            f"{dataset}: {row['cap_overflows']} cap-enforcement failures while "
            f"bounded at {row['memory_cap_bytes']} bytes"
        )
        assert row["cmm_drop"] <= max_drop, (
            f"{dataset}: CMM dropped {row['cmm_drop']:.1%} under the cap "
            f"(budget {max_drop:.0%}; capped {row['cmm']} vs exact)"
        )
        assert row["purity_drop"] <= max_drop, (
            f"{dataset}: purity dropped {row['purity_drop']:.1%} under the cap "
            f"(budget {max_drop:.0%}; capped {row['purity']} vs exact)"
        )
        assert row["evictions"] > 0, (
            f"{dataset}: the capped run never evicted — the cap "
            f"{row['memory_cap_bytes']} did not constrain this workload"
        )


register(
    "memory",
    "Bounded-memory tier — sketch-backed cold cells under a byte cap",
    experiment_memory,
    tags=("scale", "bench"),
    params=params_memory,
    artifact="BENCH_memory.json",
    payload=payload_memory,
    gate=gate_memory,
)


def experiment_obs_overhead(
    n_points: int = 16000,
    batch_size: int = 256,
    trials: int = 3,
    seed: int = 7,
) -> ExperimentResult:
    """Telemetry overhead: batch ingest with metrics on vs off.

    The same SDS stream is ingested through identical EDMStream
    configurations, alternating telemetry-off (``telemetry=None``, the
    null-object fast path) and telemetry-on (a live
    :class:`~repro.obs.Telemetry` with counters, phase timers and the
    event ring) trials.  Modes are interleaved and the best-of-``trials``
    wall clock is compared, so thermal drift cannot masquerade as
    instrumentation cost.  The run also asserts the observability contract
    that instrumentation is *observational only*: both modes must produce
    the identical clustering.  Emitted to ``BENCH_obs.json`` by
    ``python -m repro fleet run --id obs`` and gated in CI at
    ``BENCH_OBS_MAX_OVERHEAD`` (default 5%).
    """
    import time as _time

    from repro.obs import Telemetry

    result = ExperimentResult(
        experiment_id="obs",
        description="Telemetry overhead: batch ingest with metrics on vs off",
    )

    def canonical(model: EDMStream) -> Dict[Any, Any]:
        seed_of = {cid: tuple(model.tree.get(cid).seed) for cid in model.tree.ids()}
        return {
            seed_of[root]: frozenset(seed_of[member] for member in members)
            for root, members in model.partition_snapshot().items()
        }

    best: Dict[str, float] = {"off": float("inf"), "on": float("inf")}
    per_trial: Dict[str, List[float]] = {"off": [], "on": []}
    partitions: Dict[str, Any] = {}
    clusters: Dict[str, int] = {}
    telemetry: Optional[Telemetry] = None
    for _ in range(trials):
        for mode in ("off", "on"):
            obs = Telemetry() if mode == "on" else None
            stream = SDSGenerator(n_points=n_points, rate=1000.0, seed=seed).generate()
            model = EDMStream(
                radius=0.3, beta=0.0021, stream_rate=stream.rate, telemetry=obs
            )
            started = _time.perf_counter()
            model.learn_many(stream, batch_size=batch_size)
            elapsed = _time.perf_counter() - started
            per_trial[mode].append(elapsed)
            best[mode] = min(best[mode], elapsed)
            partitions[mode] = canonical(model)
            clusters[mode] = model.n_clusters
            if mode == "on":
                telemetry = obs

    overhead = best["on"] / best["off"] - 1.0
    identical = partitions["off"] == partitions["on"] and clusters["off"] == clusters["on"]
    rows = [
        {
            "mode": mode,
            "best_elapsed_s": round(best[mode], 4),
            "points_per_second": round(n_points / best[mode], 1),
            "trial_elapsed_s": [round(t, 4) for t in per_trial[mode]],
            "clusters": clusters[mode],
        }
        for mode in ("off", "on")
    ]
    result.add_table("summary", rows)
    result.add_series(
        "overhead",
        SeriesResult(
            name="overhead",
            x=list(range(1, trials + 1)),
            y=[on / off - 1.0 for off, on in zip(per_trial["off"], per_trial["on"])],
            x_label="trial",
            y_label="telemetry overhead (on/off - 1)",
        ),
    )
    result.metadata["n_points"] = n_points
    result.metadata["batch_size"] = batch_size
    result.metadata["trials"] = trials
    result.metadata["overhead_ratio"] = round(overhead, 4)
    result.metadata["identical_clustering"] = identical
    if telemetry is not None:
        result.metadata["telemetry"] = {
            "phases": telemetry.phase_totals(),
            "event_counts": telemetry.events.counts(),
        }
    return result


def params_obs() -> Dict[str, Any]:
    """Workload knobs: ``BENCH_OBS_POINTS`` / ``_TRIALS``."""
    return {
        "points": _env_int("BENCH_OBS_POINTS", 16000),
        "trials": _env_int("BENCH_OBS_TRIALS", 3),
    }


def payload_obs(result: ExperimentResult) -> Dict[str, Any]:
    """The ``BENCH_obs.json`` payload: overhead ratio + phase breakdown."""
    return {
        "experiment": "obs",
        "n_points": result.metadata["n_points"],
        "batch_size": result.metadata["batch_size"],
        "trials": result.metadata["trials"],
        "overhead_ratio": result.metadata["overhead_ratio"],
        "max_overhead": _env_float("BENCH_OBS_MAX_OVERHEAD", 0.05),
        "identical_clustering": result.metadata["identical_clustering"],
        "telemetry": result.metadata.get("telemetry"),
        "rows": result.tables["summary"],
    }


def gate_obs(result: ExperimentResult) -> None:
    """Telemetry must be nearly free and strictly observational.

    Best-of-trials ingest with telemetry on may cost at most
    ``BENCH_OBS_MAX_OVERHEAD`` (default 5%) over telemetry off, both modes
    must produce the identical clustering, and the instrumented run must
    actually have recorded phase timings (the gate would otherwise pass
    trivially on a broken no-op wiring).
    """
    max_overhead = _env_float("BENCH_OBS_MAX_OVERHEAD", 0.05)
    overhead = result.metadata["overhead_ratio"]
    assert overhead <= max_overhead, (
        f"telemetry overhead {overhead:.1%} exceeds the {max_overhead:.0%} budget"
    )
    assert result.metadata["identical_clustering"], (
        "telemetry-on produced a different clustering than telemetry-off"
    )
    telemetry = result.metadata.get("telemetry")
    assert telemetry, "instrumented run recorded no telemetry metadata"
    assign = telemetry["phases"].get("assign", {})
    assert assign.get("count", 0) > 0, (
        "instrumented run recorded no 'assign' phase timings — wiring is broken"
    )


register(
    "obs",
    "Observability — telemetry overhead and off/on clustering identity",
    experiment_obs_overhead,
    tags=("scale", "bench"),
    params=params_obs,
    artifact="BENCH_obs.json",
    payload=payload_obs,
    gate=gate_obs,
)
