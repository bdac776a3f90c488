"""Tests for the batch clustering substrates: DBSCAN and k-means."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import DBSCAN, KMeans


@pytest.fixture
def blobs():
    rng = np.random.default_rng(5)
    a = rng.normal((0.0, 0.0), 0.3, size=(60, 2))
    b = rng.normal((5.0, 5.0), 0.3, size=(60, 2))
    return np.vstack([a, b])


class TestDBSCAN:
    def test_two_blobs(self, blobs):
        labels = DBSCAN(eps=0.5, min_pts=5).fit_predict(blobs)
        assert len(set(labels) - {-1}) == 2

    def test_noise_detection(self, blobs):
        data = np.vstack([blobs, [[50.0, 50.0]]])
        labels = DBSCAN(eps=0.5, min_pts=5).fit_predict(data)
        assert labels[-1] == -1

    def test_single_cluster_when_eps_large(self, blobs):
        labels = DBSCAN(eps=50.0, min_pts=5).fit_predict(blobs)
        assert len(set(labels)) == 1

    def test_all_noise_when_min_pts_huge(self, blobs):
        labels = DBSCAN(eps=0.5, min_pts=10000).fit_predict(blobs)
        assert set(labels) == {-1}

    def test_weighted_points_reach_core_threshold(self):
        # Two heavy points within eps of each other form a cluster even though
        # there are only two of them.
        data = np.asarray([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0]])
        weights = [10.0, 10.0, 1.0]
        labels = DBSCAN(eps=0.5, min_pts=15).fit_predict(data, weights=weights)
        assert labels[0] == labels[1] != -1
        assert labels[2] == -1

    def test_empty_input(self):
        assert DBSCAN(eps=1.0).fit_predict(np.empty((0, 2))).size == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DBSCAN(eps=0.0)
        with pytest.raises(ValueError):
            DBSCAN(eps=1.0, min_pts=0)

    def test_mismatched_weights_rejected(self, blobs):
        with pytest.raises(ValueError):
            DBSCAN(eps=0.5).fit_predict(blobs, weights=[1.0])

    def test_labels_are_dense_from_zero(self, blobs):
        labels = DBSCAN(eps=0.5, min_pts=5).fit_predict(blobs)
        found = sorted(set(labels) - {-1})
        assert found == list(range(len(found)))


class TestKMeans:
    def test_two_blobs(self, blobs):
        labels = KMeans(n_clusters=2, seed=3).fit_predict(blobs)
        assert len(set(labels)) == 2
        # The two halves of the data belong to different clusters.
        assert labels[0] == labels[10]
        assert labels[0] != labels[70]

    def test_centers_near_blob_means(self, blobs):
        model = KMeans(n_clusters=2, seed=3).fit(blobs)
        centers = sorted(model.centers_.tolist())
        assert np.allclose(centers[0], [0.0, 0.0], atol=0.3)
        assert np.allclose(centers[1], [5.0, 5.0], atol=0.3)

    def test_weighted_fit_pulls_centers(self):
        data = np.asarray([[0.0, 0.0], [10.0, 0.0]])
        weights = [100.0, 1.0]
        model = KMeans(n_clusters=1, seed=0).fit(data, weights=weights)
        assert model.centers_[0][0] < 1.0

    def test_inertia_decreases_with_more_clusters(self, blobs):
        inertia_1 = KMeans(n_clusters=1, seed=0).fit(blobs).inertia_
        inertia_2 = KMeans(n_clusters=2, seed=0).fit(blobs).inertia_
        assert inertia_2 < inertia_1

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(n_clusters=2).predict([[0.0, 0.0]])

    def test_predict_single_point(self, blobs):
        model = KMeans(n_clusters=2, seed=3).fit(blobs)
        assert model.predict([0.1, 0.1]).shape == (1,)

    def test_more_clusters_than_points(self):
        data = np.asarray([[0.0, 0.0], [1.0, 1.0]])
        labels = KMeans(n_clusters=5, seed=0).fit_predict(data)
        assert len(labels) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)
        with pytest.raises(ValueError):
            KMeans(n_clusters=2, max_iter=0)
        with pytest.raises(ValueError):
            KMeans(n_clusters=1).fit(np.empty((0, 2)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10000))
    def test_deterministic_given_seed(self, seed):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 3))
        first = KMeans(n_clusters=3, seed=seed).fit_predict(data)
        second = KMeans(n_clusters=3, seed=seed).fit_predict(data)
        assert np.array_equal(first, second)
