"""Tests for the distance metrics and the text/Jaccard support."""

import pytest
from hypothesis import given, strategies as st

from repro.distance import (
    chebyshev,
    cosine,
    euclidean,
    get_metric,
    jaccard_distance,
    jaccard_similarity,
    manhattan,
    minkowski,
    squared_euclidean,
    tokenize,
    TokenSetPoint,
)

import numpy as np

vectors = st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8)
paired_vectors = st.integers(min_value=1, max_value=8).flatmap(
    lambda d: st.tuples(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=d, max_size=d),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=d, max_size=d),
    )
)


class TestNumericMetrics:
    def test_euclidean_known_value(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_squared_euclidean_known_value(self):
        assert squared_euclidean((0, 0), (3, 4)) == pytest.approx(25.0)

    def test_manhattan_known_value(self):
        assert manhattan((1, 2), (4, 6)) == pytest.approx(7.0)

    def test_chebyshev_known_value(self):
        assert chebyshev((1, 2), (4, 6)) == pytest.approx(4.0)

    def test_minkowski_p2_equals_euclidean(self):
        assert minkowski((1, 2, 3), (4, 5, 6), p=2) == pytest.approx(
            euclidean((1, 2, 3), (4, 5, 6))
        )

    def test_minkowski_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            minkowski((1,), (2,), p=0)

    def test_cosine_orthogonal_vectors(self):
        assert cosine((1, 0), (0, 1)) == pytest.approx(1.0)

    def test_cosine_parallel_vectors(self):
        assert cosine((1, 2), (2, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_zero_vectors(self):
        assert cosine((0, 0), (0, 0)) == 0.0
        assert cosine((0, 0), (1, 1)) == 1.0

    @given(paired_vectors)
    def test_euclidean_symmetry(self, pair):
        a, b = pair
        assert euclidean(a, b) == pytest.approx(euclidean(b, a))

    @given(vectors)
    def test_euclidean_identity(self, a):
        assert euclidean(a, a) == pytest.approx(0.0)

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda d: st.tuples(
                *[
                    st.lists(st.floats(min_value=-50, max_value=50), min_size=d, max_size=d)
                    for _ in range(3)
                ]
            )
        )
    )
    def test_euclidean_triangle_inequality(self, triple):
        a, b, c = triple
        assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-9


class TestMetricFactory:
    @pytest.mark.parametrize(
        "name, func",
        [("euclidean", euclidean), ("l2", euclidean), ("manhattan", manhattan), ("cosine", cosine)],
    )
    def test_lookup_by_name(self, name, func):
        assert get_metric(name) is func

    def test_lookup_jaccard(self):
        metric = get_metric("jaccard")
        assert metric({"a"}, {"a"}) == 0.0

    def test_lookup_is_case_insensitive(self):
        assert get_metric("Euclidean") is euclidean

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            get_metric("mahalanobis")


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_similarity({"a", "b"}, {"a", "b"}) == 1.0
        assert jaccard_distance({"a", "b"}, {"a", "b"}) == 0.0

    def test_disjoint_sets(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0
        assert jaccard_distance({"a"}, {"b"}) == 1.0

    def test_partial_overlap(self):
        assert jaccard_similarity({"a", "b", "c"}, {"b", "c", "d"}) == pytest.approx(0.5)

    def test_empty_sets_are_identical(self):
        assert jaccard_similarity(set(), set()) == 1.0

    def test_accepts_token_set_points(self):
        a = TokenSetPoint(tokens=frozenset({"x", "y"}))
        b = TokenSetPoint(tokens=frozenset({"y", "z"}))
        assert jaccard_distance(a, b) == pytest.approx(2.0 / 3.0)

    @given(
        st.sets(st.sampled_from("abcdefgh")), st.sets(st.sampled_from("abcdefgh"))
    )
    def test_distance_in_unit_interval_and_symmetric(self, a, b):
        d = jaccard_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(jaccard_distance(b, a))


class TestTokenization:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Google Launches SDK") == frozenset({"google", "launches", "sdk"})

    def test_tokenize_removes_stop_words(self):
        tokens = tokenize("the quick fox and the dog")
        assert "the" not in tokens
        assert "and" not in tokens
        assert "fox" in tokens

    def test_tokenize_keeps_stop_words_when_asked(self):
        tokens = tokenize("the fox", remove_stop_words=False)
        assert "the" in tokens

    def test_token_set_point_from_text(self):
        point = TokenSetPoint.from_text("Apple Samsung patent battle")
        assert "apple" in point.tokens
        assert point.text == "Apple Samsung patent battle"
        assert len(point) == len(point.tokens)
        assert list(point) == sorted(point.tokens)


def _kernel_operands():
    """Operand pairs of every layout the kernel meets: one query row or
    many, 2-d and 34-d, near the origin and 1e6 from it, C-ordered,
    strided, Fortran-ordered and mixed float32/float64."""
    rng = np.random.default_rng(11)
    cases = {}
    for dim in (2, 34):
        for rows in (1, 9):
            for offset in (0.0, 1e6):
                queries = rng.normal(size=(rows, dim)) + offset
                seeds = rng.normal(size=(40, dim)) + offset
                name = f"{rows}x40x{dim}@{offset:g}"
                cases[name] = (queries, seeds)
                cases[f"{name}-strided"] = (
                    np.repeat(queries, 2, axis=1)[:, ::2],
                    (rng.normal(size=(80, dim)) + offset)[::2],
                )
                cases[f"{name}-fortran"] = (np.asfortranarray(queries), np.asfortranarray(seeds))
                cases[f"{name}-f32-f64"] = (queries.astype(np.float32), seeds)
                cases[f"{name}-f64-f32"] = (queries, seeds.astype(np.float32))
    return cases


KERNEL_OPERANDS = _kernel_operands()


class TestKernelEntry:
    """``pairwise_euclidean`` enters scipy's compiled kernel directly."""

    @pytest.fixture(params=["direct", "public cdist"])
    def kernel(self, request, monkeypatch):
        import repro.distance.metrics as metrics

        if request.param == "public cdist":
            from scipy.spatial.distance import cdist

            monkeypatch.setattr(metrics, "_cdist", cdist)
        return metrics.pairwise_euclidean

    def test_the_kernel_is_the_compiled_entry(self):
        import repro.distance.metrics as metrics

        entry = pytest.importorskip("scipy.spatial._distance_pybind")
        assert metrics._cdist is entry.cdist_euclidean

    @pytest.mark.parametrize("name", sorted(KERNEL_OPERANDS))
    def test_equals_the_public_cdist_bit_for_bit(self, kernel, name):
        from scipy.spatial.distance import cdist

        queries, seeds = KERNEL_OPERANDS[name]
        got = kernel(queries, seeds)
        expected = cdist(queries, seeds)
        assert got.dtype == expected.dtype == np.float64
        assert got.shape == (queries.shape[0], seeds.shape[0])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "queries, seeds",
        [
            (np.zeros((1, 3)), np.zeros((5, 2))),
            (np.zeros(2), np.zeros((5, 2))),
            (np.zeros((1, 2)), np.zeros(2)),
            (np.zeros((1, 1, 2)), np.zeros((5, 2))),
        ],
        ids=["widths", "1-d queries", "1-d seeds", "3-d queries"],
    )
    def test_wrong_shapes_raise_value_error(self, kernel, queries, seeds):
        with pytest.raises(ValueError):
            kernel(queries, seeds)
