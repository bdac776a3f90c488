"""Behavioural tests for the EDMStream algorithm (Section 4)."""


import numpy as np
import pytest

from repro import EDMStream, EDMStreamConfig
from repro.distance import TokenSetPoint
from repro.streams import SDSGenerator


def feed(model, stream, limit=None):
    for i, point in enumerate(stream):
        if limit is not None and i >= limit:
            break
        model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
    return model


class TestConstruction:
    def test_keyword_overrides_build_a_config(self):
        model = EDMStream(radius=0.7, beta=0.001)
        assert model.config.radius == 0.7
        assert model.config.beta == 0.001

    def test_config_plus_overrides(self):
        config = EDMStreamConfig(radius=0.5)
        model = EDMStream(config, beta=0.01)
        assert model.config.radius == 0.5
        assert model.config.beta == 0.01

    def test_initial_state_is_empty(self):
        model = EDMStream()
        assert model.n_points == 0
        assert model.n_active_cells == 0
        assert model.n_clusters == 0
        assert not model.initialized


class TestIngestion:
    def test_learn_one_returns_a_cell_id(self):
        model = EDMStream(radius=0.5)
        cell_id = model.learn_one((0.0, 0.0), timestamp=0.0)
        assert isinstance(cell_id, int)
        assert model.n_points == 1

    def test_close_points_share_a_cell(self):
        model = EDMStream(radius=0.5)
        first = model.learn_one((0.0, 0.0), timestamp=0.0)
        second = model.learn_one((0.1, 0.1), timestamp=0.001)
        assert first == second

    def test_far_points_create_new_cells(self):
        model = EDMStream(radius=0.5)
        first = model.learn_one((0.0, 0.0), timestamp=0.0)
        second = model.learn_one((10.0, 10.0), timestamp=0.001)
        assert first != second

    def test_missing_timestamps_auto_increment(self):
        model = EDMStream(radius=0.5, stream_rate=100.0)
        model.learn_one((0.0, 0.0))
        model.learn_one((0.0, 0.1))
        assert model.now == pytest.approx(0.01)

    def test_learn_many_consumes_stream_points(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        assigned = model.learn_many(two_blob_stream)
        assert len(assigned) == len(two_blob_stream)
        assert model.n_points == len(two_blob_stream)

    def test_initialization_happens_at_init_size(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        feed(model, two_blob_stream, limit=49)
        assert not model.initialized
        feed(model, two_blob_stream[49:], limit=1)
        assert model.initialized
        assert model.tau is not None
        assert model.alpha is not None


class TestClustering:
    def test_two_blobs_give_two_clusters(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50, beta=0.001)
        feed(model, two_blob_stream)
        assert model.n_clusters == 2

    def test_three_blobs_give_three_clusters(self, three_blob_stream):
        model = EDMStream(radius=0.4, init_size=60, beta=0.001)
        feed(model, three_blob_stream)
        assert model.n_clusters == 3

    def test_clusters_partition_the_active_cells(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        feed(model, two_blob_stream)
        clusters = model.clusters()
        members = [cid for cluster in clusters.values() for cid in cluster]
        assert sorted(members) == sorted(model.tree.ids())

    def test_predict_one_separates_the_blobs(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50, beta=0.001)
        feed(model, two_blob_stream)
        label_a = model.predict_one((0.0, 0.0))
        label_b = model.predict_one((6.0, 6.0))
        assert label_a != label_b
        assert label_a != model.config.outlier_label
        assert label_b != model.config.outlier_label

    def test_predict_far_point_is_outlier(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        feed(model, two_blob_stream)
        assert model.predict_one((100.0, 100.0)) == model.config.outlier_label

    def test_predict_on_empty_model_is_outlier(self):
        assert EDMStream().predict_one((0.0, 0.0)) == -1

    def test_cell_assignment_and_cluster_label_of_cell_agree(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        feed(model, two_blob_stream)
        assignment = model.request_clustering().cell_assignment()
        for cell_id, root in assignment.items():
            assert model.cluster_label_of_cell(cell_id) == root

    def test_cluster_label_of_inactive_cell_is_outlier(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        feed(model, two_blob_stream)
        for cell in model.reservoir.cells():
            assert model.cluster_label_of_cell(cell.cell_id) == model.config.outlier_label
            break

    def test_decision_graph_covers_active_cells(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        feed(model, two_blob_stream)
        graph = model.decision_graph()
        assert len(graph) == model.n_active_cells
        # Sorted by decreasing density.
        densities = [rho for rho, _, _ in graph]
        assert densities == sorted(densities, reverse=True)


class TestDecayAndReservoir:
    def test_stale_clusters_decay_into_the_reservoir(self):
        rng = np.random.default_rng(3)
        # Fast forgetting: a cluster that stops receiving points disappears.
        model = EDMStream(radius=0.5, beta=0.01, decay_a=0.5, decay_lambda=1.0,
                          stream_rate=100.0, init_size=20)
        # Phase 1: a dense blob at the origin.
        for i in range(300):
            model.learn_one(tuple(rng.normal((0, 0), 0.2)), timestamp=i / 100.0)
        assert model.n_active_cells > 0
        # Phase 2: the stream moves to a far location; the old blob decays.
        for i in range(300, 1500):
            model.learn_one(tuple(rng.normal((30, 30), 0.2)), timestamp=i / 100.0)
        for cell in model.tree.cells():
            seed = np.asarray(cell.seed)
            assert np.linalg.norm(seed - np.asarray((30.0, 30.0))) < 5.0, (
                "stale cells near the origin should have been deactivated"
            )

    def test_reservoir_history_recorded(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        feed(model, two_blob_stream)
        # At least one maintenance sweep ran (stream spans 0.2 s at 1000 pt/s
        # with maintenance_interval 1.0 it may not) — force one more second.
        model.learn_one((0.0, 0.0), timestamp=5.0)
        model.learn_one((0.0, 0.0), timestamp=6.5)
        assert model.reservoir_size_history

    def test_summary_contains_key_fields(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        feed(model, two_blob_stream)
        summary = model.summary()
        for key in ("points", "active_cells", "inactive_cells", "clusters", "tau", "filter_stats"):
            assert key in summary


class TestFilters:
    @staticmethod
    def seed_keyed_tree(model):
        """The DP-Tree as {seed: (dependency's seed, delta)} over active cells."""
        seed_of = {cell.cell_id: tuple(cell.seed) for cell in model.tree.cells()}
        return {
            tuple(cell.seed): (seed_of.get(cell.dependency), cell.delta)
            for cell in model.tree.cells()
        }

    @pytest.mark.parametrize("density", [True, False])
    @pytest.mark.parametrize("triangle", [True, False])
    def test_filters_do_not_change_the_clustering(self, three_blob_stream, density, triangle):
        """Theorems 1 and 2 only skip provably-unnecessary updates."""
        params = dict(radius=0.4, init_size=60, beta=0.001)
        reference = feed(
            EDMStream(**params, enable_density_filter=False, enable_triangle_filter=False),
            three_blob_stream,
        )
        model = feed(
            EDMStream(
                **params, enable_density_filter=density, enable_triangle_filter=triangle
            ),
            three_blob_stream,
        )
        assert len(model.tree) > 1
        assert self.seed_keyed_tree(model) == self.seed_keyed_tree(reference)
        assert model.n_clusters == reference.n_clusters
        stats = model.filter_stats
        assert (stats.density_filtered > 0) == density
        assert (stats.triangle_filtered > 0) == triangle

    def test_filters_reduce_distance_computations(self, three_blob_stream):
        with_filters = EDMStream(radius=0.4, init_size=60, beta=0.001)
        without_filters = EDMStream(
            radius=0.4, init_size=60, beta=0.001,
            enable_density_filter=False, enable_triangle_filter=False,
        )
        feed(with_filters, three_blob_stream)
        feed(without_filters, three_blob_stream)
        assert (
            with_filters.filter_stats.distance_computations
            < without_filters.filter_stats.distance_computations
        )

    def test_filter_statistics_are_populated(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        feed(model, two_blob_stream)
        stats = model.filter_stats
        assert stats.candidates > 0
        assert stats.density_filtered > 0


class TestTextStreams:
    def test_jaccard_metric_clusters_topics(self):
        model = EDMStream(radius=0.4, metric="jaccard", init_size=20, beta=0.01,
                          stream_rate=100.0)
        tech = [TokenSetPoint(frozenset({"google", "android", "wear", str(i % 3)})) for i in range(60)]
        sport = [TokenSetPoint(frozenset({"football", "goal", "match", str(i % 3)})) for i in range(60)]
        t = 0.0
        for a, b in zip(tech, sport):
            model.learn_one(a, timestamp=t)
            t += 0.01
            model.learn_one(b, timestamp=t)
            t += 0.01
        assert model.n_clusters == 2
        tech_label = model.predict_one(TokenSetPoint(frozenset({"google", "android", "wear"})))
        sport_label = model.predict_one(TokenSetPoint(frozenset({"football", "goal", "match"})))
        assert tech_label != sport_label


class TestEvolutionIntegration:
    def test_sds_stream_produces_all_four_evolution_types(self):
        stream = SDSGenerator(n_points=16000, rate=1000.0, seed=7).generate()
        model = EDMStream(
            radius=0.3, beta=0.0021, decay_a=0.998, decay_lambda=1000.0, stream_rate=1000.0
        )
        for point in stream:
            model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
        counts = model.evolution.counts()
        assert counts["merge"] >= 1
        assert counts["emerge"] >= 3  # two initial clusters + the 12 s emergence
