"""Tests for the snapshot-based serving API (repro.api).

The contracts under test, per ISSUE 2:

* every clusterer in the repository is a :class:`repro.api.StreamClusterer`
  and ``request_clustering()`` returns a :class:`repro.api.ClusterSnapshot`;
* ``predict_many(X)`` is element-wise identical to ``[predict_one(x) for x
  in X]``, both on the snapshot and on the model;
* snapshots are immutable: one taken before further ingestion is
  bit-identical after it, and its arrays reject writes;
* snapshot versions strictly increase across publications;
* stable cluster ids carry across snapshots that share surviving clusters;
* ``learn_many`` accepts StreamPoints and raw values on every clusterer.
"""

import numpy as np
import pytest

from repro.api import (
    ClusterSnapshot,
    GridSpec,
    ServingView,
    SnapshotPublisher,
    StreamClusterer,
)
from repro.baselines import (
    DBSCAN,
    Birch,
    CluStream,
    DBStream,
    DenStream,
    DStream,
    KMeans,
    MRStream,
    PeriodicDPStream,
)
from repro.core import EDMStream
from repro.streams import SDSGenerator
from repro.streams.point import StreamPoint


def two_blob_points(n=400, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(0.0, 0.0), scale=0.4, size=(n // 2, 2))
    b = rng.normal(loc=(6.0, 6.0), scale=0.4, size=(n // 2, 2))
    values = np.concatenate([a, b])
    order = rng.permutation(n)
    return [
        StreamPoint.from_sequence(values[i], timestamp=0.01 * rank, label=int(i >= n // 2))
        for rank, i in enumerate(order)
    ]


def all_clusterers():
    """One instance of every clusterer in the repository."""
    return [
        EDMStream(radius=0.8, beta=0.0021, stream_rate=100.0),
        DBSCAN(eps=0.8, min_pts=3.0),
        KMeans(n_clusters=2),
        DenStream(eps=0.8, mu=3.0, beta=0.5),
        DStream(grid_size=1.0),
        DBStream(radius=0.8),
        MRStream(bounds=(-3.0, 9.0), max_height=4),
        CluStream(n_micro_clusters=30, n_macro_clusters=2),
        PeriodicDPStream(radius=0.8, tau=3.0, stream_rate=100.0),
        Birch(threshold=0.8, n_macro_clusters=2),
    ]


class TestProtocolConformance:
    def test_every_clusterer_implements_the_protocol(self):
        algorithms = all_clusterers()
        assert len(algorithms) == 10
        for algorithm in algorithms:
            assert isinstance(algorithm, StreamClusterer), algorithm

    @pytest.mark.parametrize("algorithm", all_clusterers(), ids=lambda a: a.name)
    def test_request_clustering_returns_a_snapshot(self, algorithm):
        algorithm.learn_many(two_blob_points())
        snapshot = algorithm.request_clustering()
        assert isinstance(snapshot, ClusterSnapshot)
        assert snapshot.algorithm == algorithm.name
        assert snapshot.version >= 1
        assert snapshot.n_clusters >= 0

    @pytest.mark.parametrize("algorithm", all_clusterers(), ids=lambda a: a.name)
    def test_learn_many_accepts_raw_values(self, algorithm):
        raw = [p.values for p in two_blob_points(n=60)]
        results = algorithm.learn_many(raw)
        assert len(results) == len(raw)

    @pytest.mark.parametrize("algorithm", all_clusterers(), ids=lambda a: a.name)
    def test_model_predict_many_equals_predict_one_loop(self, algorithm):
        points = two_blob_points()
        algorithm.learn_many(points)
        algorithm.request_clustering()
        queries = [p.values for p in points[:80]]
        batched = algorithm.predict_many(queries)
        looped = [int(algorithm.predict_one(q)) for q in queries]
        assert [int(v) for v in batched] == looped

    @pytest.mark.parametrize("algorithm", all_clusterers(), ids=lambda a: a.name)
    def test_snapshot_predict_many_equals_snapshot_predict_one(self, algorithm):
        points = two_blob_points()
        algorithm.learn_many(points)
        snapshot = algorithm.request_clustering()
        queries = [p.values for p in points[:80]]
        batched = snapshot.predict_many(queries)
        looped = [snapshot.predict_one(q) for q in queries]
        assert [int(v) for v in batched] == looped

    @pytest.mark.parametrize("algorithm", all_clusterers(), ids=lambda a: a.name)
    def test_snapshot_is_stale_but_consistent(self, algorithm):
        """snapshot() serves the last published view without recomputing."""
        algorithm.learn_many(two_blob_points())
        published = algorithm.request_clustering()
        algorithm.learn_many(two_blob_points(n=40, seed=9))
        assert algorithm.snapshot().version >= published.version


class TestEDMStreamSnapshots:
    @pytest.fixture()
    def stream(self):
        return SDSGenerator(n_points=4000, rate=1000.0, seed=7).generate()

    @pytest.fixture()
    def model(self, stream):
        model = EDMStream(radius=0.3, beta=0.0021, stream_rate=stream.rate)
        model.learn_many(stream)
        return model

    def test_snapshot_versions_strictly_increase(self, model):
        first = model.request_clustering()
        model.learn_many([(0.5, 0.5), (0.6, 0.4)])
        second = model.request_clustering()
        model.learn_one((0.7, 0.7))
        third = model.request_clustering()
        assert first.version < second.version < third.version

    def test_unchanged_state_does_not_republish(self, model):
        first = model.request_clustering()
        second = model.request_clustering()
        assert second is first

    def test_snapshot_immutable_under_continued_ingestion(self, model, stream):
        snapshot = model.request_clustering()
        seeds = snapshot.seeds.copy()
        labels = snapshot.labels.copy()
        cell_ids = snapshot.cell_ids.copy()
        densities = snapshot.densities.copy()
        stable_ids = dict(snapshot.stable_ids)
        probe = [(8.0, 9.5), (1.0, 1.0), (4.0, 4.0)]
        answers = snapshot.predict_many(probe).tolist()

        model.learn_many(SDSGenerator(n_points=4000, rate=1000.0, seed=11).generate())
        model.request_clustering()

        assert np.array_equal(snapshot.seeds, seeds)
        assert np.array_equal(snapshot.labels, labels)
        assert np.array_equal(snapshot.cell_ids, cell_ids)
        assert np.array_equal(snapshot.densities, densities)
        assert dict(snapshot.stable_ids) == stable_ids
        assert snapshot.predict_many(probe).tolist() == answers

    def test_snapshot_arrays_reject_writes(self, model):
        snapshot = model.request_clustering()
        with pytest.raises(ValueError):
            snapshot.seeds[0, 0] = 99.0
        with pytest.raises(ValueError):
            snapshot.labels[0] = 99
        with pytest.raises(TypeError):
            snapshot.stable_ids[123] = 0  # mappingproxy

    def test_stable_ids_carry_across_surviving_clusters(self, model):
        first = model.request_clustering()
        assert first.n_clusters >= 2
        # Keep ingesting the same regions: the clusters survive, so each new
        # native root must map onto the stable id its predecessor had.
        model.learn_many(SDSGenerator(n_points=1000, rate=1000.0, seed=13).generate())
        second = model.request_clustering()
        assert second.version > first.version
        first_stable = {first.stable_ids[label] for label in first.cluster_labels()}
        second_stable = {second.stable_ids[label] for label in second.cluster_labels()}
        assert first_stable & second_stable, "no stable id survived between snapshots"

    def test_predict_many_matches_predict_one_on_sds(self, model, stream):
        queries = [p.values for p in stream.points[:500]]
        batched = model.predict_many(queries)
        looped = np.asarray([model.predict_one(q) for q in queries])
        assert np.array_equal(batched, looped)
        # The snapshot query agrees with the model query.
        snapshot = model.request_clustering()
        assert np.array_equal(snapshot.predict_many(queries), batched)

    def test_snapshot_agrees_with_live_queries(self, model):
        snapshot = model.request_clustering()
        assert snapshot.tau == pytest.approx(model.tau)
        assert snapshot.n_clusters == model.n_clusters
        assert snapshot.clusters() == model.clusters()
        assert snapshot.n_points == model.n_points

    def test_learn_many_raw_values_equivalent_to_stream_points(self):
        raw_model = EDMStream(radius=0.3, beta=0.0021, stream_rate=1000.0)
        point_model = EDMStream(radius=0.3, beta=0.0021, stream_rate=1000.0)
        points = two_blob_points(n=300)
        raw_model.learn_many([p.values for p in points], batch_size=64)
        point_model.learn_many(
            [StreamPoint(values=p.values, timestamp=None) for p in points],
            batch_size=64,
        )
        assert raw_model.clusters() == point_model.clusters()

    def test_jaccard_snapshot_serves_token_queries(self):
        from repro.distance import TokenSetPoint

        model = EDMStream(radius=0.6, metric="jaccard", stream_rate=100.0)
        docs = [
            frozenset({"goal", "match", "football"}),
            frozenset({"goal", "match", "league"}),
            frozenset({"phone", "android", "release"}),
            frozenset({"phone", "android", "update"}),
        ] * 40
        model.learn_many([TokenSetPoint(tokens) for tokens in docs])
        snapshot = model.request_clustering()
        queries = [
            TokenSetPoint(frozenset({"goal", "match"})),
            TokenSetPoint(frozenset({"phone", "android"})),
        ]
        batched = snapshot.predict_many(queries)
        looped = [model.predict_one(q) for q in queries]
        assert batched.tolist() == looped


class TestStableIdMatching:
    def _view(self, labels_by_cell):
        cell_ids = sorted(labels_by_cell)
        return ServingView(
            seeds=np.zeros((len(cell_ids), 2)),
            cell_ids=cell_ids,
            labels=[labels_by_cell[cid] for cid in cell_ids],
        )

    def test_surviving_cluster_keeps_its_stable_id(self):
        publisher = SnapshotPublisher()
        first = publisher.publish(self._view({1: 10, 2: 10, 3: 20, 4: 20}))
        # Cluster 10 renamed to 77 but keeps members 1, 2: same stable id.
        second = publisher.publish(self._view({1: 77, 2: 77, 3: 20, 4: 20}))
        assert second.stable_ids[77] == first.stable_ids[10]
        assert second.stable_ids[20] == first.stable_ids[20]
        assert second.version == first.version + 1

    def test_new_cluster_gets_a_fresh_stable_id(self):
        publisher = SnapshotPublisher()
        first = publisher.publish(self._view({1: 10, 2: 10}))
        second = publisher.publish(self._view({1: 10, 2: 10, 8: 30, 9: 30}))
        assert second.stable_ids[10] == first.stable_ids[10]
        assert second.stable_ids[30] not in set(first.stable_ids.values())

    def test_disjoint_partition_reuses_nothing(self):
        publisher = SnapshotPublisher()
        first = publisher.publish(self._view({1: 10, 2: 10}))
        second = publisher.publish(self._view({8: 10, 9: 10}))
        # Same native label but zero member overlap: a different cluster.
        assert second.stable_ids[10] != first.stable_ids[10]


class TestGridSnapshots:
    def test_grid_spec_lookup_matches_dstream_predictions(self):
        model = DStream(grid_size=1.0)
        points = two_blob_points()
        model.learn_many(points)
        snapshot = model.request_clustering()
        assert snapshot.grid is not None
        queries = [p.values for p in points[:50]]
        assert [int(v) for v in snapshot.predict_many(queries)] == [
            model.predict_one(q) for q in queries
        ]

    def test_grid_spec_clamps_to_bounds(self):
        spec = GridSpec(width=0.25, origin=0.0, divisions=4, labels={(3,): 1})
        assert spec.keys_of(np.asarray([[99.0]])) == [(3,)]
        assert spec.keys_of(np.asarray([[-99.0]])) == [(0,)]


class TestSinglePointQueries:
    """A single 1-D point is one query in every mode but the object-keyed one."""

    def test_seeded_numeric_snapshot(self):
        snapshot = ClusterSnapshot(
            version=1,
            time=0.0,
            n_points=0,
            seeds=[[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]],
            labels=[3, 4],
            coverage=1.0,
        )
        assert snapshot.predict_many([0.0, 0.0, 0.0]).tolist() == [3]
        assert snapshot.predict_many(np.full(3, 5.0)).tolist() == [4]

    def test_seedless_numeric_snapshot(self):
        snapshot = ClusterSnapshot(version=1, time=0.0, n_points=0)
        assert snapshot.predict_many([0.0, 0.0, 0.0]).tolist() == [-1]
        assert snapshot.predict_many(np.zeros((2, 3))).tolist() == [-1, -1]

    def test_empty_seed_matrix(self):
        snapshot = ClusterSnapshot(
            version=1, time=0.0, n_points=0, seeds=np.empty((0, 3)), labels=[]
        )
        assert snapshot.predict_many([0.0, 0.0, 0.0]).tolist() == [-1]

    def test_grid_snapshot(self):
        grid = GridSpec(width=1.0, labels={(0, 0): 7})
        snapshot = ClusterSnapshot(version=1, time=0.0, n_points=0, grid=grid)
        assert snapshot.predict_many([0.5, 0.5]).tolist() == [7]
        assert snapshot.predict_many([[0.5, 0.5], [3.0, 3.0]]).tolist() == [7, -1]

    def test_object_snapshot_reads_each_element_as_one_query(self):
        from repro.distance import jaccard_distance

        queries = [frozenset({"a", "b"}), frozenset({"z"})]
        seeded = ClusterSnapshot(
            version=1,
            time=0.0,
            n_points=0,
            seed_objects=[frozenset({"a", "b"})],
            metric=jaccard_distance,
            labels=[5],
            coverage=0.5,
        )
        assert seeded.predict_many(queries).tolist() == [5, -1]
        seedless = ClusterSnapshot(version=1, time=0.0, n_points=0, metric=jaccard_distance)
        assert seedless.predict_many(queries).tolist() == [-1, -1]

    def test_seedless_jaccard_model_reads_each_document_as_one_query(self):
        from repro.distance import TokenSetPoint

        model = EDMStream(radius=0.6, metric="jaccard", stream_rate=100.0)
        queries = [TokenSetPoint(frozenset({"goal"})), TokenSetPoint(frozenset({"phone"}))]
        assert model.request_clustering().predict_many(queries).tolist() == [-1, -1]


class TestStableQueries:
    def test_stable_labels_equal_the_per_label_lookup(self):
        rng = np.random.default_rng(4)
        seeds = rng.uniform(0.0, 10.0, size=(30, 2))
        # label 99 has no stable id, so it maps to the outlier label
        labels = rng.choice([10, 20, 30, 99, -1], size=30)
        snapshot = ClusterSnapshot(
            version=1,
            time=0.0,
            n_points=0,
            seeds=seeds,
            labels=labels,
            coverage=0.8,
            stable_ids={10: 0, 20: 5, 30: 2},
        )
        queries = rng.uniform(-1.0, 11.0, size=(400, 2))
        native = snapshot.predict_many(queries)
        stable = snapshot.predict_many(queries, stable=True)
        assert stable.dtype == np.int64
        assert stable.tolist() == [snapshot.stable_label_of(int(v)) for v in native]
        assert {-1, 99} <= set(native.tolist())
        assert snapshot.predict_many(queries[:0], stable=True).tolist() == []


class TestSnapshotQueryPerformance:
    def test_predict_many_is_faster_than_the_loop(self):
        """Vectorised serving must clearly beat the per-point query loop.

        Typically 10-20x on an idle machine; the tier-1 bar is a
        contention-tolerant 3x (override via ``REPRO_TEST_QUERY_MIN_SPEEDUP``;
        CI relaxes to 2x).  The full >= 5x acceptance bar of ISSUE 2 is
        asserted and recorded by the env-tunable query benchmark
        (``python -m repro fleet run --id query``), whose measurements are
        not interleaved with a full test run.
        """
        import os
        import time

        min_speedup = float(os.environ.get("REPRO_TEST_QUERY_MIN_SPEEDUP", "3.0"))

        stream = SDSGenerator(n_points=6000, rate=1000.0, seed=7).generate()
        model = EDMStream(radius=0.3, beta=0.0021, stream_rate=stream.rate)
        model.learn_many(stream)
        snapshot = model.request_clustering()
        queries = [p.values for p in stream.points] + [
            p.values for p in stream.points[:4000]
        ]
        assert len(queries) == 10000

        started = time.perf_counter()
        looped = [model.predict_one(q) for q in queries]
        loop_seconds = time.perf_counter() - started

        # The batch path finishes in milliseconds, so a single scheduling
        # hiccup can dominate one measurement; take the best of three.
        batch_seconds = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            batched = snapshot.predict_many(queries)
            batch_seconds = min(batch_seconds, time.perf_counter() - started)

        assert [int(v) for v in batched] == [int(v) for v in looped]
        assert batch_seconds * min_speedup <= loop_seconds, (
            f"snapshot predict_many ({batch_seconds:.4f}s) should be >= "
            f"{min_speedup}x faster than the predict_one loop "
            f"({loop_seconds:.4f}s) on 10k queries"
        )
