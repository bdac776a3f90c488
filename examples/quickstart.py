#!/usr/bin/env python3
"""Quickstart: cluster an evolving 2-D stream with EDMStream.

Generates the SDS synthetic stream (two Gaussian clusters that merge, a new
cluster that emerges, a disappearance and a split — the Figure 6 script),
feeds it into EDMStream and prints:

* the number of clusters at every second of stream time,
* the cluster evolution events the tracker detected,
* the final decision graph (ρ, δ of the active cluster-cells), and
* predictions served from an immutable :class:`~repro.api.ClusterSnapshot` —
  the canonical ingest/serve split: ``learn_one`` / ``learn_many`` mutate the
  live model, ``request_clustering()`` publishes a frozen, versioned view,
  and ``predict_many`` answers query batches entirely off that view.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import EDMStream
from repro.dp import DecisionGraph
from repro.streams import SDSGenerator


def main() -> None:
    rate = 1000.0
    stream = SDSGenerator(n_points=20000, rate=rate, seed=7).generate()

    # decay_lambda = rate gives a per-point forgetting factor of 0.998, so the
    # 20-second evolution of the stream is visible (with decay_lambda = 1 the
    # density half-life would be ~350 s, longer than the whole stream).
    model = EDMStream(
        radius=0.3,
        beta=0.0021,
        decay_a=0.998,
        decay_lambda=rate,
        stream_rate=rate,
    )

    clusters_per_second = {}
    for point in stream:
        model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
        clusters_per_second[int(point.timestamp) + 1] = model.n_clusters

    print("clusters over time")
    print("  second :", " ".join(f"{s:>3d}" for s in sorted(clusters_per_second)))
    print("  count  :", " ".join(f"{clusters_per_second[s]:>3d}" for s in sorted(clusters_per_second)))

    print("\ncluster evolution events")
    for event in model.evolution.events:
        if event.event_type.value in ("merge", "split", "disappear") or (
            event.event_type.value == "emerge" and event.time > 1.0
        ):
            print(f"  {event}")

    print("\nfinal state")
    summary = model.summary()
    print(f"  active cells:   {summary['active_cells']}")
    print(f"  inactive cells: {summary['inactive_cells']}")
    print(f"  clusters:       {summary['clusters']}")
    print(f"  tau:            {summary['tau']:.3f}  (alpha={summary['alpha']:.2f})")

    graph_points = model.decision_graph()
    graph = DecisionGraph(
        rho=[rho for rho, _, _ in graph_points],
        delta=[min(delta, 10.0) for _, delta, _ in graph_points],
    )
    print("\ndecision graph (rho on x, delta on y, '-' marks tau)")
    print(graph.render(width=60, height=14, tau=model.tau))

    # Serve predictions from an immutable snapshot: one vectorised batch
    # query, no lock on (and no reference into) the live model.
    snapshot = model.request_clustering()
    print(f"\nserving snapshot: version {snapshot.version}, "
          f"{snapshot.n_cells} seeds, {snapshot.n_clusters} clusters")
    probes = [(8.0, 9.5), (7.5, 6.5), (1.0, 1.0)]
    labels = snapshot.predict_many(probes)
    print("predictions for probe points (served off the snapshot)")
    for probe, label in zip(probes, labels):
        meaning = "outlier" if label == snapshot.outlier_label else f"cluster {label}"
        stable = snapshot.stable_label_of(int(label))
        print(f"  {probe} -> {meaning} (stable serving id {stable})")


if __name__ == "__main__":
    main()
