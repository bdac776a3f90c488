"""Ablation experiments for EDMStream's design choices.

These go beyond the paper's own evaluation: each experiment isolates one
design decision of EDMStream (or one substrate choice of this reproduction)
and measures its effect, using the same result containers and reporting as
the Section 6 experiments.

* :func:`experiment_decay_ablation` — how the decay half-life affects the
  ability to follow an abruptly drifting stream (the decay model is what
  distinguishes *stream* clustering from dynamic clustering, Section 7).
* :func:`experiment_beta_ablation` — effect of the active-threshold
  multiplier β on the number of active cells, the reservoir size and
  quality (Section 4.3).
* :func:`experiment_tracking_comparison` — EDMStream's online evolution log
  versus the offline MONIC and MEC trackers run over periodic snapshots of
  the same model (Sections 1 and 7: "existing solutions need an additional
  offline cluster evolution detecting procedure").
* :func:`experiment_cftree_vs_dptree` — DP-Tree-based EDMStream versus the
  CF-Tree-based BIRCH on a drifting stream (the structural comparison of
  Section 7).
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, Sequence

import numpy as np

from repro.baselines import Birch
from repro.core import EDMStream
from repro.core.decay import DecayModel
from repro.harness.registry import register
from repro.harness.results import ExperimentResult
from repro.harness.runner import StreamRunner
from repro.streams import SDSGenerator
from repro.streams.drift import GaussianMixture, abrupt_drift_stream
from repro.streams.stream import DataStream
from repro.tracking import MECTracker, MonicTracker, SnapshotRecorder
from repro.tracking.adapter import compare_event_logs, events_from_external_transitions

__all__ = [
    "experiment_decay_ablation",
    "experiment_beta_ablation",
    "experiment_tracking_comparison",
    "experiment_cftree_vs_dptree",
]


# --------------------------------------------------------------------- #
# shared drifting workload
# --------------------------------------------------------------------- #
def _drift_stream(n_points: int, rate: float = 1000.0, seed: int = 0) -> DataStream:
    """Two clusters that jump to new locations halfway through the stream."""
    before = GaussianMixture(
        centers=[(0.0, 0.0), (6.0, 0.0)], std=0.3, labels=[0, 1]
    )
    after = GaussianMixture(
        centers=[(0.0, 6.0), (6.0, 6.0)], std=0.3, labels=[2, 3]
    )
    return abrupt_drift_stream(
        before, after, n_points=n_points, drift_point=0.5, rate=rate, seed=seed,
        name="abrupt-drift",
    )


# --------------------------------------------------------------------- #
# decay ablation
# --------------------------------------------------------------------- #
def experiment_decay_ablation(
    n_points: int = 8000,
    rate: float = 1000.0,
    half_lives: Sequence[float] = (0.5, 2.0, 8.0, 1e9),
    seed: int = 0,
) -> ExperimentResult:
    """Effect of the decay half-life on recovering from an abrupt drift.

    ``half_lives`` are in seconds of stream time; the last (huge) value
    approximates "no decay", i.e. the dynamic-clustering setting the paper
    contrasts stream clustering against in Section 7.
    """
    result = ExperimentResult(
        experiment_id="ablation_decay",
        description="Decay half-life vs quality on an abruptly drifting stream",
    )
    stream = _drift_stream(n_points, rate=rate, seed=seed)
    rows = []
    for half_life in half_lives:
        # a^(λ·t) = 0.5 at t = half_life, with a = 0.998 fixed: λ = ln 0.5 / (t·ln a).
        decay_lambda = float(np.log(0.5) / (half_life * np.log(0.998)))
        model = EDMStream(
            radius=0.35,
            beta=0.0021,
            decay_a=0.998,
            decay_lambda=decay_lambda,
            stream_rate=rate,
        )
        runner = StreamRunner(checkpoint_every=max(500, n_points // 8), quality_window=400)
        label = "no decay" if half_life >= 1e6 else f"half-life {half_life:g}s"
        metrics = runner.run(model, stream, algorithm_name=label, stream_name=stream.name)
        result.runs.append(metrics)
        result.add_series(label, metrics.series("cmm", "CMM"))
        post_drift = [v for c, v in zip(metrics.checkpoints, metrics.cmm) if c > n_points // 2]
        rows.append(
            {
                "variant": label,
                "decay_lambda": decay_lambda,
                "mean_cmm": round(metrics.mean_cmm, 4),
                "post_drift_cmm": round(sum(post_drift) / len(post_drift), 4) if post_drift else 0.0,
                "final_clusters": metrics.n_clusters[-1] if metrics.n_clusters else 0,
                "active_cells": model.n_active_cells,
            }
        )
    result.add_table("summary", rows)
    return result


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


register(
    "ablation_decay",
    "Ablation — decay half-life vs recovery from abrupt drift",
    experiment_decay_ablation,
    tags=("ablation",),
    params=lambda: {"points": 6000, "half_lives": (0.5, 2.0, 8.0, 1e9)},
    gate=gate_ablation_decay,
)


# --------------------------------------------------------------------- #
# beta ablation
# --------------------------------------------------------------------- #
def experiment_beta_ablation(
    n_points: int = 8000,
    rate: float = 1000.0,
    betas: Sequence[float] = (0.0005, 0.0021, 0.01, 0.05),
    seed: int = 11,
) -> ExperimentResult:
    """Effect of the active-threshold multiplier β (Section 4.3)."""
    result = ExperimentResult(
        experiment_id="ablation_beta",
        description="Active-threshold multiplier beta vs active cells / reservoir / quality",
    )
    generator = SDSGenerator(n_points=n_points, rate=rate, seed=seed)
    stream = generator.generate()
    rows = []
    for beta in betas:
        model = EDMStream(
            radius=0.3,
            beta=beta,
            decay_a=0.998,
            decay_lambda=rate,
            stream_rate=rate,
        )
        runner = StreamRunner(checkpoint_every=max(500, n_points // 8), quality_window=400)
        label = f"beta={beta:g}"
        metrics = runner.run(model, stream, algorithm_name=label, stream_name=stream.name)
        result.runs.append(metrics)
        result.add_series(label, metrics.series("cmm", "CMM"))
        rows.append(
            {
                "beta": beta,
                "active_cells": model.n_active_cells,
                "inactive_cells": model.n_inactive_cells,
                "active_threshold": round(model.active_threshold(), 3),
                "mean_cmm": round(metrics.mean_cmm, 4),
                "clusters": model.n_clusters,
            }
        )
    result.add_table("summary", rows)
    return result


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


register(
    "ablation_beta",
    "Ablation — active-threshold multiplier beta",
    experiment_beta_ablation,
    tags=("ablation",),
    params=lambda: {"points": 6000, "betas": (0.0005, 0.0021, 0.01, 0.05)},
    gate=gate_ablation_beta,
)


# --------------------------------------------------------------------- #
# online vs offline evolution tracking
# --------------------------------------------------------------------- #
def experiment_tracking_comparison(
    n_points: int = 12000,
    rate: float = 1000.0,
    snapshot_every: float = 1.0,
    window_size: int = 600,
    seed: int = 7,
) -> ExperimentResult:
    """EDMStream's online evolution log vs offline MONIC / MEC tracking.

    One EDMStream model is run over the SDS evolution script; its native
    event log is the reference.  In parallel, a :class:`SnapshotRecorder`
    takes object-level snapshots of the *same* model every
    ``snapshot_every`` seconds and feeds them to MONIC and MEC.  The offline
    trackers should recover the same merge/split/emerge/disappear story —
    at the cost of an extra pass over the windowed points per snapshot,
    which is exactly the overhead the paper's online tracking avoids.
    """
    result = ExperimentResult(
        experiment_id="ablation_tracking",
        description="Online (DP-Tree) evolution tracking vs offline MONIC / MEC",
    )
    generator = SDSGenerator(n_points=n_points, rate=rate, seed=seed)
    stream = generator.generate()
    model = EDMStream(
        radius=0.3,
        beta=0.0021,
        decay_a=0.998,
        decay_lambda=rate,
        stream_rate=rate,
    )
    decay = DecayModel(a=0.998, lam=rate)
    recorder = SnapshotRecorder(model, window_size=window_size, decay=decay)
    monic = MonicTracker()
    mec = MECTracker()

    online_seconds = 0.0
    offline_seconds = 0.0
    next_snapshot = snapshot_every
    for point in stream:
        started = _time.perf_counter()
        model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
        online_seconds += _time.perf_counter() - started
        recorder.add_stream_point(point)
        if point.timestamp >= next_snapshot:
            started = _time.perf_counter()
            snapshot = recorder.snapshot(time=point.timestamp)
            monic.observe(snapshot)
            mec.observe(snapshot)
            offline_seconds += _time.perf_counter() - started
            next_snapshot += snapshot_every

    native_events = model.evolution.events
    monic_events = events_from_external_transitions(monic.external_transitions)
    mec_events = events_from_external_transitions(mec.transitions)

    def _event_counts(events) -> Dict[str, int]:
        counts = {"emerge": 0, "disappear": 0, "split": 0, "merge": 0}
        for event in events:
            key = event.event_type.value
            if key in counts:
                counts[key] += 1
        return counts

    counts_rows = [
        {"tracker": "EDMStream (online)", **_event_counts(native_events)},
        {"tracker": "MONIC (offline)", **_event_counts(monic_events)},
        {"tracker": "MEC (offline)", **_event_counts(mec_events)},
    ]
    result.add_table("event_counts", counts_rows)

    agreement_rows = []
    for name, events in (("MONIC", monic_events), ("MEC", mec_events)):
        report = compare_event_logs(native_events, events, time_tolerance=3.0)
        for event_type, values in report.items():
            agreement_rows.append({"tracker": name, "event_type": event_type, **values})
    result.add_table("agreement_vs_online", agreement_rows)

    result.add_table(
        "cost",
        [
            {
                "component": "EDMStream online updates (incl. native tracking)",
                "seconds": round(online_seconds, 3),
            },
            {
                "component": "offline snapshotting + MONIC + MEC",
                "seconds": round(offline_seconds, 3),
            },
        ],
    )
    result.metadata["native_event_count"] = len(native_events)
    return result


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


register(
    "ablation_tracking",
    "Ablation — online evolution tracking vs offline MONIC / MEC",
    experiment_tracking_comparison,
    tags=("ablation",),
    params=lambda: {"points": 10000},
    gate=gate_ablation_tracking,
)


# --------------------------------------------------------------------- #
# CF-Tree (BIRCH) vs DP-Tree (EDMStream)
# --------------------------------------------------------------------- #
def experiment_cftree_vs_dptree(
    n_points: int = 8000,
    rate: float = 1000.0,
    seed: int = 3,
) -> ExperimentResult:
    """BIRCH (CF-Tree, no decay) vs EDMStream (DP-Tree, decayed) under drift."""
    result = ExperimentResult(
        experiment_id="ablation_cftree",
        description="CF-Tree (BIRCH) vs DP-Tree (EDMStream) on an abruptly drifting stream",
    )
    stream = _drift_stream(n_points, rate=rate, seed=seed)
    contenders: Dict[str, Any] = {
        "EDMStream": EDMStream(
            radius=0.35,
            beta=0.0021,
            decay_a=0.998,
            decay_lambda=rate,
            stream_rate=rate,
        ),
        "BIRCH": Birch(threshold=0.35, branching_factor=8, max_leaf_entries=8),
    }
    rows = []
    for name, algorithm in contenders.items():
        runner = StreamRunner(checkpoint_every=max(500, n_points // 8), quality_window=400)
        metrics = runner.run(algorithm, stream, algorithm_name=name, stream_name=stream.name)
        result.runs.append(metrics)
        result.add_series(f"cmm/{name}", metrics.series("cmm", "CMM"))
        result.add_series(
            f"response/{name}", metrics.series("response_time_us", "response time (us)")
        )
        post_drift = [v for c, v in zip(metrics.checkpoints, metrics.cmm) if c > n_points // 2]
        summary = {
            "algorithm": name,
            "mean_cmm": round(metrics.mean_cmm, 4),
            "post_drift_cmm": round(sum(post_drift) / len(post_drift), 4) if post_drift else 0.0,
            "mean_response_us": round(metrics.mean_response_time_us, 2),
            "final_clusters": metrics.n_clusters[-1] if metrics.n_clusters else 0,
        }
        if name == "BIRCH":
            summary["summaries"] = algorithm.n_leaf_entries
            summary["tree_height"] = algorithm.tree_height
        else:
            summary["summaries"] = algorithm.n_active_cells
        rows.append(summary)
    result.add_table("summary", rows)
    return result


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


register(
    "ablation_cftree",
    "Ablation — CF-Tree (BIRCH) vs DP-Tree (EDMStream) under drift",
    experiment_cftree_vs_dptree,
    tags=("ablation",),
    params=lambda: {"points": 6000},
    gate=gate_ablation_cftree,
)
