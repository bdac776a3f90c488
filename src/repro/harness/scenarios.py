"""Scenario experiments: cluster evolution and adaptive τ.

These drivers reproduce the evolution-centric parts of the evaluation:

* Figures 6 and 7 — the SDS synthetic stream with its scripted
  merge / emerge / disappear / split timeline,
* Figure 8 and Table 3 — topic evolution on the news stream,
* Figure 15 and Table 4 — dynamic τ vs static τ on SDS.

All of them use a fast-forgetting decay (λ equal to the arrival rate, i.e.
an effective per-point decay of ``a``) so that the 20-second evolution of
the SDS stream is observable.  The paper's SDS clusters emerge, merge and
vanish within seconds, while the default per-second decay (a = 0.998,
λ = 1) has a half-life of about 350 s and would keep a vanished cluster
dense long after the script moved on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core import EDMStream, EvolutionType
from repro.harness.registry import register
from repro.harness.results import ExperimentResult, SeriesResult
from repro.streams import NewsStreamGenerator, SDSGenerator


def _sds_model(rate: float, radius: float = 0.3, adaptive_tau: bool = True,
               tau: Optional[float] = None, alpha: Optional[float] = None) -> EDMStream:
    """EDMStream configured for the SDS evolution experiments."""
    return EDMStream(
        radius=radius,
        beta=0.0021,
        decay_a=0.998,
        decay_lambda=rate,  # per-point forgetting; see module docstring
        stream_rate=rate,
        adaptive_tau=adaptive_tau,
        tau=tau,
        alpha=alpha,
    )


# --------------------------------------------------------------------- #
# Figures 6 and 7 — SDS evolution tracking
# --------------------------------------------------------------------- #
def experiment_evolution_sds(
    n_points: int = 20000, rate: float = 1000.0, seed: int = 7
) -> ExperimentResult:
    """Figures 6-7: run EDMStream over SDS and report the evolution timeline."""
    generator = SDSGenerator(n_points=n_points, rate=rate, seed=seed)
    stream = generator.generate()
    model = _sds_model(rate)

    clusters_per_second: Dict[int, int] = {}
    snapshot_rows: List[Dict[str, Any]] = []
    snapshot_times = set(generator.snapshot_times())
    for point in stream:
        model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
        second = int(point.timestamp) + 1
        clusters_per_second[second] = model.n_clusters
        if point.timestamp in snapshot_times:
            snapshot_times.discard(point.timestamp)
    for snapshot_time in generator.snapshot_times():
        second = min(int(snapshot_time), max(clusters_per_second))
        snapshot_rows.append(
            {
                "snapshot_time_s": snapshot_time,
                "clusters": clusters_per_second.get(
                    max(1, second), clusters_per_second[max(clusters_per_second)]
                ),
            }
        )

    result = ExperimentResult(
        experiment_id="fig6_7",
        description="Cluster evolution activities on the SDS stream",
    )
    series = SeriesResult(
        name="EDMStream", x_label="time (s)", y_label="number of clusters"
    )
    for second in sorted(clusters_per_second):
        series.append(second, clusters_per_second[second])
    result.add_series("clusters_over_time", series)
    result.add_table("snapshots", snapshot_rows)
    result.add_table(
        "evolution_events",
        [
            {
                "time_s": round(event.time, 2),
                "type": event.event_type.value,
                "description": event.description,
            }
            for event in model.evolution.events
            if event.event_type != EvolutionType.ADJUST
        ],
    )
    result.add_table("event_counts", [model.evolution.counts()])
    result.metadata["expected_events"] = {
        "merge": "two initial clusters merge around 8-9 s",
        "emerge": "a new cluster appears around 12 s",
        "disappear": "the merged cluster disappears around 14-16 s",
        "split": "the emergent cluster splits around 14-17 s",
    }
    return result


def gate_fig7(result: ExperimentResult) -> None:
    """All four SDS evolution activities (Figures 6-7) must be observed."""
    counts = result.tables["event_counts"][0]
    assert counts["merge"] >= 1, "the two initial clusters should merge"
    assert counts["emerge"] >= 3, "a new cluster should emerge around 12 s"
    assert counts["disappear"] >= 1, "the merged cluster should disappear"
    assert counts["split"] >= 1, "the emergent cluster should split"
    series = result.series["clusters_over_time"]
    assert max(series.y) >= 2 and min(series.y) >= 1


register(
    "fig7",
    "Figures 6-7 — SDS cluster evolution",
    experiment_evolution_sds,
    tags=("paper", "evolution"),
    params=lambda: {"points": 20000, "rate": 1000.0},
    gate=gate_fig7,
)


# --------------------------------------------------------------------- #
# Figure 8 and Table 3 — news-stream topic evolution
# --------------------------------------------------------------------- #
def experiment_news_evolution(
    n_points: int = 8000, seed: int = 17
) -> ExperimentResult:
    """Figure 8 / Table 3: topic-level cluster evolution on the news stream."""
    generator = NewsStreamGenerator(n_points=n_points, seed=seed)
    stream = generator.generate()
    rate = stream.rate
    model = EDMStream(
        radius=0.4,
        beta=0.0021,
        metric="jaccard",
        decay_a=0.998,
        decay_lambda=rate,
        stream_rate=rate,
        adaptive_tau=True,
    )
    for point in stream:
        model.learn_one(point.values, timestamp=point.timestamp, label=point.label)

    seconds_per_day = (len(stream) / rate) / generator.days
    event_rows = []
    for event in model.evolution.events:
        if event.event_type in (EvolutionType.ADJUST, EvolutionType.SURVIVE):
            continue
        event_rows.append(
            {
                "day": round(event.time / seconds_per_day, 1),
                "type": event.event_type.value,
                "description": event.description,
            }
        )

    result = ExperimentResult(
        experiment_id="fig8_table3",
        description="Cluster evolution activities on the news stream (Jaccard distance)",
    )
    result.add_table("observed_events", event_rows)
    result.add_table("expected_events", generator.expected_events())
    result.add_table("event_counts", [model.evolution.counts()])
    result.metadata["n_clusters_final"] = model.n_clusters
    return result


def gate_fig8(result: ExperimentResult) -> None:
    """The scripted merges and splits of Table 3 must surface as events."""
    counts = result.tables["event_counts"][0]
    observed_types = {row["type"] for row in result.tables["observed_events"]}
    assert counts["merge"] + counts["split"] >= 2
    assert "merge" in observed_types or "split" in observed_types
    assert result.metadata["n_clusters_final"] >= 2


register(
    "fig8",
    "Figure 8 / Table 3 — news-stream topic evolution",
    experiment_news_evolution,
    tags=("paper", "evolution"),
    params=lambda: {"points": 6000},
    gate=gate_fig8,
)


# --------------------------------------------------------------------- #
# Figure 15 and Table 4 — dynamic vs static τ
# --------------------------------------------------------------------- #
def experiment_adaptive_tau(
    n_points: int = 20000,
    rate: float = 1000.0,
    seed: int = 7,
    static_tau: float = 5.0,
    seconds_reported: int = 10,
) -> ExperimentResult:
    """Figure 15 / Table 4: number of clusters with dynamic vs static τ on SDS."""
    stream = SDSGenerator(n_points=n_points, rate=rate, seed=seed).generate()

    dynamic_model = _sds_model(rate, adaptive_tau=True)
    static_model = _sds_model(rate, adaptive_tau=False, tau=static_tau)

    dynamic_counts: Dict[int, int] = {}
    static_counts: Dict[int, int] = {}
    decision_graphs: Dict[int, List[Tuple[float, float, int]]] = {}
    for point in stream:
        dynamic_model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
        static_model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
        second = int(point.timestamp) + 1
        dynamic_counts[second] = dynamic_model.n_clusters
        static_counts[second] = static_model.n_clusters
        if second in (4, 5, 6) and second not in decision_graphs and point.timestamp >= second - 0.01:
            decision_graphs[second] = dynamic_model.decision_graph()

    result = ExperimentResult(
        experiment_id="fig15_table4",
        description="Dynamic vs static tau: number of clusters over the first seconds (SDS)",
    )
    rows = []
    for second in range(1, seconds_reported + 1):
        rows.append(
            {
                "t (s)": second,
                "dynamic tau": dynamic_counts.get(second, 0),
                "static tau": static_counts.get(second, 0),
            }
        )
    result.add_table("table4", rows)

    dynamic_series = SeriesResult(name="dynamic", x_label="time (s)", y_label="clusters")
    static_series = SeriesResult(name="static", x_label="time (s)", y_label="clusters")
    for second in sorted(dynamic_counts):
        dynamic_series.append(second, dynamic_counts[second])
        static_series.append(second, static_counts.get(second, 0))
    result.add_series("dynamic_tau", dynamic_series)
    result.add_series("static_tau", static_series)

    tau_series = SeriesResult(name="tau", x_label="time (s)", y_label="tau value")
    for time_point, tau_value in dynamic_model.tau_history:
        tau_series.append(time_point, tau_value)
    result.add_series("tau_over_time", tau_series)

    result.metadata["alpha"] = dynamic_model.alpha
    result.metadata["static_tau"] = static_tau
    result.metadata["decision_graph_sizes"] = {
        second: len(graph) for second, graph in decision_graphs.items()
    }
    return result


def gate_fig15(result: ExperimentResult) -> None:
    """Adaptive τ keeps tracking two clusters longer than the static τ."""
    rows = result.tables["table4"]
    dynamic_total = sum(row["dynamic tau"] for row in rows)
    static_total = sum(row["static tau"] for row in rows)
    assert dynamic_total > static_total, (
        "the adaptive tau should keep tracking two clusters longer than the static tau"
    )
    assert any(row["dynamic tau"] == 2 and row["static tau"] == 1 for row in rows)


register(
    "fig15",
    "Figure 15 / Table 4 — dynamic vs static tau",
    experiment_adaptive_tau,
    tags=("paper", "evolution"),
    params=lambda: {
        "points": 20000,
        "rate": 1000.0,
        "static_tau": 5.0,
        "seconds_reported": 10,
    },
    gate=gate_fig15,
)
