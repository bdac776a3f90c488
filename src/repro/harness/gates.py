"""Benchmark contracts: per-experiment run parameters, artifacts, and gates.

Each entry of :func:`bench_contracts` describes how one registered
experiment runs *as a benchmark*: the exact driver parameters (resolved
at call time so the ``BENCH_*`` environment knobs CI sets keep working),
the consolidated ``BENCH_*.json`` artifact it emits (payload fields are
byte-compatible with the pre-fleet per-script outputs), and the gate
assertions enforced by ``python -m repro fleet run``.

Gates raise ``AssertionError`` with the same messages the historical
scripts printed; the docstring of each gate records the paper shape that
must hold.  A gate must only consume what
:meth:`repro.harness.results.ExperimentResult.to_payload` round-trips
(tables, series, metadata), so resumed fleet runs can be re-gated from
their durable ``result.json`` without re-execution.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from repro.harness.results import ExperimentResult

__all__ = ["bench_contracts"]


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, str(default)))


def _env_tuple(name: str, default: str) -> tuple:
    return tuple(
        item.strip() for item in os.environ.get(name, default).split(",") if item.strip()
    )


# --------------------------------------------------------------------- #
# Paper figures and tables
# --------------------------------------------------------------------- #

#: Competitors plotted in each panel of Figure 9 (besides EDMStream).
FIG9_PAPER_SERIES = {
    "KDDCUP99": ("D-Stream", "DenStream", "DBSTREAM"),
    "CoverType": ("D-Stream", "DBSTREAM"),
    "PAMAP2": ("D-Stream", "DBSTREAM"),
}

#: Competitors EDMStream must beat per dataset in Figure 10 (DenStream
#: completes on our small surrogates, unlike at the paper's scale, so it
#: is asserted only on KDDCUP99 — the dataset where the paper also shows
#: it surviving at 1 K/s).
FIG10_PAPER_SERIES = {
    "KDDCUP99": ("D-Stream", "DenStream", "DBSTREAM", "MR-Stream"),
    "CoverType": ("D-Stream", "DBSTREAM", "MR-Stream"),
    "PAMAP2": ("D-Stream", "DBSTREAM", "MR-Stream"),
}


def gate_table2(result: ExperimentResult) -> None:
    """Table 2 must inventory the paper's 10 datasets and our 5 surrogates."""
    assert len(result.tables["paper"]) == 10
    assert len(result.tables["surrogates"]) == 5


def gate_fig7(result: ExperimentResult) -> None:
    """All four SDS evolution activities (Figures 6-7) must be observed."""
    counts = result.tables["event_counts"][0]
    assert counts["merge"] >= 1, "the two initial clusters should merge"
    assert counts["emerge"] >= 3, "a new cluster should emerge around 12 s"
    assert counts["disappear"] >= 1, "the merged cluster should disappear"
    assert counts["split"] >= 1, "the emergent cluster should split"
    series = result.series["clusters_over_time"]
    assert max(series.y) >= 2 and min(series.y) >= 1


def gate_fig8(result: ExperimentResult) -> None:
    """The scripted merges and splits of Table 3 must surface as events."""
    counts = result.tables["event_counts"][0]
    observed_types = {row["type"] for row in result.tables["observed_events"]}
    assert counts["merge"] + counts["split"] >= 2
    assert "merge" in observed_types or "split" in observed_types
    assert result.metadata["n_clusters_final"] >= 2


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


def gate_fig12(result: ExperimentResult) -> None:
    """Response time grows with the dimensionality (more per-distance work)."""
    series = result.series["EDMStream"]
    assert series.y[-1] >= series.y[0]
    assert all(y > 0 for y in series.y)


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


def gate_fig14(result: ExperimentResult) -> None:
    """Quality stays stable when the stream is replayed at higher rates."""
    values = [row["mean_cmm"] for row in result.tables["summary"]]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert max(values) - min(values) < 0.35, "CMM should be stable across stream rates"


def gate_fig15(result: ExperimentResult) -> None:
    """Adaptive τ keeps tracking two clusters longer than the static τ."""
    rows = result.tables["table4"]
    dynamic_total = sum(row["dynamic tau"] for row in rows)
    static_total = sum(row["static tau"] for row in rows)
    assert dynamic_total > static_total, (
        "the adaptive tau should keep tracking two clusters longer than the static tau"
    )
    assert any(row["dynamic tau"] == 2 and row["static tau"] == 1 for row in rows)


def gate_fig16(result: ExperimentResult) -> None:
    """Measured reservoir sizes respect the Theorem-3 upper bound."""
    for row in result.tables["summary"]:
        assert row["within_bound"], (
            f"measured reservoir size exceeded the Theorem-3 bound on {row['dataset']}"
        )
        assert row["max_measured_size"] <= row["upper_bound"]


def gate_fig17(result: ExperimentResult) -> None:
    """Smaller radii yield more, finer cluster-cells; quality stays usable."""
    rows = result.tables["summary"]
    assert rows[0]["radius"] <= rows[-1]["radius"]
    assert rows[0]["total_cells"] >= rows[-1]["total_cells"]
    assert all(row["mean_response_us"] > 0 for row in rows)
    assert all(0.0 <= row["mean_cmm"] <= 1.0 for row in rows)


def gate_ablation(result: ExperimentResult) -> None:
    """Incremental DP-Tree maintenance answers updates faster than batch DP."""
    rows = {row["algorithm"]: row for row in result.tables["summary"]}
    assert rows["EDMStream"]["mean_response_us"] < rows["Periodic-DP"]["mean_response_us"]


def gate_ablation_decay(result: ExperimentResult) -> None:
    """A decayed configuration tracks the post-drift concept at least as well."""
    rows = {row["variant"]: row for row in result.tables["summary"]}
    assert all(0.0 <= row["mean_cmm"] <= 1.0 for row in rows.values())
    decayed_best = max(
        row["post_drift_cmm"] for name, row in rows.items() if name != "no decay"
    )
    assert decayed_best >= rows["no decay"]["post_drift_cmm"] - 0.05, (
        "a decayed configuration should track the post-drift concept at least "
        "as well as the no-decay configuration"
    )


def gate_ablation_beta(result: ExperimentResult) -> None:
    """Larger β ⇒ higher active threshold ⇒ no more active cells."""
    rows = result.tables["summary"]
    actives = [row["active_cells"] for row in rows]
    thresholds = [row["active_threshold"] for row in rows]
    assert thresholds == sorted(thresholds), "threshold must rise with beta"
    assert actives[0] >= actives[-1], "larger beta must not produce more active cells"
    paper_row = next(row for row in rows if row["beta"] == 0.0021)
    assert paper_row["clusters"] >= 1
    assert 0.0 <= paper_row["mean_cmm"] <= 1.0


def gate_ablation_tracking(result: ExperimentResult) -> None:
    """Online tracking sees the SDS story; offline trackers detect activity."""
    counts = {row["tracker"]: row for row in result.tables["event_counts"]}
    online = counts["EDMStream (online)"]
    assert online["emerge"] >= 1
    assert online["merge"] + online["split"] >= 1
    for name in ("MONIC (offline)", "MEC (offline)"):
        assert (
            sum(counts[name].get(k, 0) for k in ("emerge", "disappear", "split", "merge"))
            >= 1
        )
    cost = {row["component"]: row["seconds"] for row in result.tables["cost"]}
    assert all(value >= 0 for value in cost.values())


def gate_ablation_cftree(result: ExperimentResult) -> None:
    """The decayed DP-Tree tracks the post-drift concept at least as well."""
    rows = {row["algorithm"]: row for row in result.tables["summary"]}
    assert set(rows) == {"EDMStream", "BIRCH"}
    assert all(0.0 <= row["mean_cmm"] <= 1.0 for row in rows.values())
    assert rows["EDMStream"]["post_drift_cmm"] >= rows["BIRCH"]["post_drift_cmm"] - 0.05, (
        "the decayed DP-Tree should track the post-drift concept at least as "
        "well as the un-decayed CF-Tree"
    )
    assert rows["EDMStream"]["final_clusters"] >= 1


# --------------------------------------------------------------------- #
# CI benchmark matrix (tag "bench"): artifacts + gates
# --------------------------------------------------------------------- #
def params_fig10_batch() -> Dict[str, Any]:
    """Workload knobs: ``BENCH_FIG10_POINTS``, ``BENCH_FIG10_DATASETS``."""
    params: Dict[str, Any] = {"points": _env_int("BENCH_FIG10_POINTS", 16000)}
    datasets_env = os.environ.get("BENCH_FIG10_DATASETS")
    if datasets_env:
        params["datasets"] = _env_tuple("BENCH_FIG10_DATASETS", "")
    return params


def payload_fig10_batch(result: ExperimentResult) -> Dict[str, Any]:
    """The ``BENCH_throughput.json`` payload (fields unchanged since PR 1)."""
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


def params_query() -> Dict[str, Any]:
    """Workload knobs: ``BENCH_QUERY_POINTS``, ``BENCH_QUERY_QUERIES``."""
    return {
        "points": _env_int("BENCH_QUERY_POINTS", 16000),
        "n_queries": _env_int("BENCH_QUERY_QUERIES", 10000),
        "batch_sizes": (1, 64, 4096),
    }


def payload_query(result: ExperimentResult) -> Dict[str, Any]:
    """The ``BENCH_query.json`` payload (fields unchanged since PR 2)."""
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
    ISSUE 2 acceptance bar).  Batch size 1 is the degenerate case and is
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
    """The ``BENCH_serving.json`` payload (fields unchanged since PR 7)."""
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
    """The ``BENCH_memory.json`` payload (fields unchanged since PR 8)."""
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


# --------------------------------------------------------------------- #
# The contract table
# --------------------------------------------------------------------- #
def bench_contracts() -> Dict[str, Any]:
    """Benchmark contract per experiment id (imported lazily by the registry)."""
    from repro.harness.registry import BenchContract

    return {
        "table2": BenchContract(
            params=lambda: {"points": 2000},
            gate=gate_table2,
        ),
        "fig7": BenchContract(
            params=lambda: {"points": 20000, "rate": 1000.0},
            gate=gate_fig7,
        ),
        "fig8": BenchContract(
            params=lambda: {"points": 6000},
            gate=gate_fig8,
        ),
        "fig9": BenchContract(
            params=lambda: {
                "points": 6000,
                "datasets": ("KDDCUP99", "CoverType", "PAMAP2"),
                "algorithms": ("EDMStream", "D-Stream", "DenStream", "DBSTREAM"),
                "checkpoint_every": 1500,
            },
            gate=gate_fig9,
        ),
        "fig10": BenchContract(
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
        ),
        "fig10_batch": BenchContract(
            params=params_fig10_batch,
            artifact="BENCH_throughput.json",
            payload=payload_fig10_batch,
            gate=gate_fig10_batch,
        ),
        "query": BenchContract(
            params=params_query,
            artifact="BENCH_query.json",
            payload=payload_query,
            gate=gate_query,
        ),
        "serve": BenchContract(
            params=params_serve,
            artifact="BENCH_serving.json",
            payload=payload_serve,
            gate=gate_serve,
        ),
        "memory": BenchContract(
            params=params_memory,
            artifact="BENCH_memory.json",
            payload=payload_memory,
            gate=gate_memory,
        ),
        "obs": BenchContract(
            params=params_obs,
            artifact="BENCH_obs.json",
            payload=payload_obs,
            gate=gate_obs,
        ),
        "fig11": BenchContract(
            params=lambda: {
                "points": 8000,
                "datasets": ("KDDCUP99", "CoverType", "PAMAP2"),
                "checkpoint_every": 2000,
            },
            gate=gate_fig11,
        ),
        "fig12": BenchContract(
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
        ),
        "fig13": BenchContract(
            params=lambda: {
                "points": 6000,
                "datasets": ("KDDCUP99", "CoverType", "PAMAP2"),
                "algorithms": ("EDMStream", "D-Stream", "DenStream", "DBSTREAM"),
                "checkpoint_every": 2000,
                "quality_window": 300,
            },
            gate=gate_fig13,
        ),
        "fig14": BenchContract(
            params=lambda: {
                "points": 6000,
                "rates": (1000.0, 5000.0, 10000.0),
                "dataset": "CoverType",
                "checkpoint_every": 2000,
                "quality_window": 300,
            },
            gate=gate_fig14,
        ),
        "fig15": BenchContract(
            params=lambda: {
                "points": 20000,
                "rate": 1000.0,
                "static_tau": 5.0,
                "seconds_reported": 10,
            },
            gate=gate_fig15,
        ),
        "fig16": BenchContract(
            params=lambda: {
                "points": 6000,
                "rates": (1000.0, 5000.0, 10000.0),
                "datasets": ("CoverType", "PAMAP2"),
            },
            gate=gate_fig16,
        ),
        "fig17": BenchContract(
            params=lambda: {
                "points": 6000,
                "percentiles": (0.5, 1.0, 1.5, 2.0),
                "dataset": "PAMAP2",
                "checkpoint_every": 2000,
                "quality_window": 300,
            },
            gate=gate_fig17,
        ),
        "ablation": BenchContract(
            params=lambda: {
                "points": 6000,
                "dataset": "CoverType",
                "checkpoint_every": 1500,
            },
            gate=gate_ablation,
        ),
        "ablation_decay": BenchContract(
            params=lambda: {"points": 6000, "half_lives": (0.5, 2.0, 8.0, 1e9)},
            gate=gate_ablation_decay,
        ),
        "ablation_beta": BenchContract(
            params=lambda: {"points": 6000, "betas": (0.0005, 0.0021, 0.01, 0.05)},
            gate=gate_ablation_beta,
        ),
        "ablation_tracking": BenchContract(
            params=lambda: {"points": 10000},
            gate=gate_ablation_tracking,
        ),
        "ablation_cftree": BenchContract(
            params=lambda: {"points": 6000},
            gate=gate_ablation_cftree,
        ),
    }
