"""The Gram screen in ``ClusterSnapshot.predict_many`` returns the exact kernel's labels.

From eight dimensions on, ``predict_many`` answers each query block through
one BLAS product and sends only the rows it cannot decide to the exact
``pairwise_euclidean`` kernel.  The oracle below is the exact-kernel path on
its own (first nearest seed in array order, then ``best <= coverage``); the
property tests draw snapshots where the screen is hardest to get right —
duplicate seeds (exact ties), queries at exactly the coverage distance or
equidistant from two seeds, clouds far from the origin (worst cancellation
in ``‖q‖² + ‖s‖² - 2q·s``), float32 arenas, per-seed and infinite coverage —
and require element-for-element agreement.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api.snapshot as snapshot_module
from repro.api import ClusterSnapshot
from repro.api.snapshot import _SCREEN_MIN_DIM
from repro.api.transport import snapshot_from_buffers, snapshot_to_buffers
from repro.distance.metrics import pairwise_euclidean

OUTLIER = -1


@pytest.fixture(autouse=True, scope="module")
def screen_every_block():
    """Screen blocks of any size here: the work threshold only trades speed."""
    saved = snapshot_module._SCREEN_MIN_WORK
    snapshot_module._SCREEN_MIN_WORK = 0
    yield
    snapshot_module._SCREEN_MIN_WORK = saved


def exact_labels(snapshot, points):
    """The exact-kernel query path, without the screen (the oracle)."""
    queries = np.asarray(points, dtype=snapshot.seeds.dtype)
    if queries.ndim == 1:
        queries = queries[None, :]
    n = queries.shape[0]
    n_seeds = snapshot.seeds.shape[0]
    out = np.empty(n, dtype=np.int64)
    block = max(1, 4_000_000 // max(1, n_seeds))
    for start in range(0, n, block):
        stop = min(n, start + block)
        distances = pairwise_euclidean(queries[start:stop], snapshot.seeds)
        positions = np.argmin(distances, axis=1)
        rows = np.arange(stop - start)
        best = distances[rows, positions]
        labels = snapshot.labels[positions]
        if np.isscalar(snapshot.coverage):
            coverage = np.full(positions.shape, float(snapshot.coverage))
        else:
            coverage = np.asarray(snapshot.coverage)[positions]
        covered = best <= coverage
        out[start:stop] = np.where(covered, labels, snapshot.outlier_label)
    return out


def make_snapshot(seeds, labels, coverage):
    return ClusterSnapshot(
        version=1,
        time=0.0,
        n_points=0,
        seeds=seeds,
        labels=labels,
        coverage=coverage,
        outlier_label=OUTLIER,
    )


def draw_case(rng, dim, n_seeds, n_rows, offset, spread, coverage_mode, dtype):
    """A snapshot and a query block mixing easy rows with the hard ones.

    Seed coordinates sit on a 1/8 grid, so seeds, the axis steps below and
    their sums are exact in float32 and float64 alike: a query one coverage
    step along an axis is at *exactly* the coverage distance, and a query
    halfway between two seeds that differ on one axis is *exactly*
    equidistant from both.  The same two cases in random directions land
    within rounding of the boundary or the tie instead, where the screen's
    error terms decide.
    """
    base = offset + np.round(rng.uniform(-spread, spread, size=(n_seeds, dim)) * 8.0) / 8.0
    duplicates = rng.random(n_seeds) < 0.2
    sources = rng.integers(0, n_seeds, size=n_seeds)
    base[duplicates] = base[sources[duplicates]]
    labels = rng.integers(0, 6, size=n_seeds)
    if coverage_mode == "scalar":
        coverage = spread / 8.0
        steps = np.full(n_seeds, coverage)
    elif coverage_mode == "per-seed":
        coverage = rng.choice([0.5, 1.0, 2.0, 4.0], size=n_seeds) * (spread / 16.0)
        steps = coverage
    else:
        coverage = math.inf
        steps = np.full(n_seeds, spread / 8.0)

    owner = rng.integers(0, n_seeds, size=n_rows)
    other = rng.integers(0, n_seeds, size=n_rows)
    kind = rng.integers(0, 7, size=n_rows)
    axis = rng.integers(0, dim, size=n_rows)
    rows = np.arange(n_rows)
    # kind 0: near a seed; kind 1: a copy of a seed (a tie if it is duplicated)
    queries = base[owner] + rng.normal(0.0, 0.5 * steps[owner, None], size=(n_rows, dim))
    queries[kind == 1] = base[owner[kind == 1]]
    # kind 2: exactly at the coverage distance of its seed
    at_edge = kind == 2
    queries[at_edge] = base[owner[at_edge]]
    queries[rows[at_edge], axis[at_edge]] += steps[owner[at_edge]]
    # kind 3: exactly halfway between its seed and a twin 2·step away on one axis
    halfway = np.flatnonzero((kind == 3) & (owner != other))
    base[other[halfway]] = base[owner[halfway]]
    base[other[halfway], axis[halfway]] -= 2.0 * steps[owner[halfway]]
    queries[halfway] = base[owner[halfway]]
    queries[halfway, axis[halfway]] -= steps[owner[halfway]]
    # kind 4: far from every seed (outliers)
    far = kind == 4
    queries[far] += rng.choice([-1.0, 1.0], size=(int(far.sum()), dim)) * 4.0 * spread
    # kind 5: the coverage distance in a random direction
    direction = rng.normal(size=(n_rows, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    edge = np.flatnonzero(kind == 5)
    queries[edge] = base[owner[edge]] + steps[owner[edge], None] * direction[edge]
    # kind 6: on the bisector of two seeds, in a random direction from their midpoint
    bisector = np.flatnonzero(kind == 6)
    gap = base[other[bisector]] - base[owner[bisector]]
    norm2 = np.maximum(np.einsum("ij,ij->i", gap, gap), 1e-300)
    along = np.einsum("ij,ij->i", direction[bisector], gap) / norm2
    side = direction[bisector] - along[:, None] * gap
    reach = 0.3 * steps[owner[bisector], None]
    queries[bisector] = base[owner[bisector]] + 0.5 * gap + reach * side
    return make_snapshot(base.astype(dtype), labels, coverage), queries


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([8, 16, 34, 64]),
    n_seeds=st.integers(1, 60),
    n_rows=st.integers(1, 600),
    offset=st.sampled_from([0.0, -250.0, 1e6]),
    spread=st.sampled_from([1.0, 40.0]),
    coverage_mode=st.sampled_from(["scalar", "per-seed", "infinite"]),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_screen_returns_the_exact_kernels_labels(
    seed, dim, n_seeds, n_rows, offset, spread, coverage_mode, dtype
):
    rng = np.random.default_rng(seed)
    snapshot, queries = draw_case(
        rng, dim, n_seeds, n_rows, offset, spread, coverage_mode, dtype
    )
    np.testing.assert_array_equal(snapshot.predict_many(queries), exact_labels(snapshot, queries))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_exact_ties_and_boundary_rows_fall_back(dtype):
    """The screen leaves the rows it must not decide to the exact kernel."""
    seeds = np.zeros((3, 8), dtype=dtype)
    seeds[1, 0] = 2.0  # seed 0 and seed 1 are 2 apart on axis 0
    seeds[2] = seeds[1]  # seed 2 duplicates seed 1
    snapshot = make_snapshot(seeds, [10, 20, 30], coverage=1.0)
    queries = np.zeros((4, 8), dtype=dtype)
    queries[0, 0] = 1.0  # equidistant from seeds 0 and 1, at exactly the coverage
    queries[1] = seeds[1]  # exact tie between seeds 1 and 2
    queries[2, 1] = 1.0  # exactly at the coverage distance of seed 0
    queries[3, 1] = 0.25  # clearly inside seed 0's coverage: decided
    _, undecided = snapshot._screen(queries)
    assert undecided.tolist() == [0, 1, 2]
    assert snapshot.predict_many(queries).tolist() == [10, 20, 10, 10]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_screen_decides_almost_every_row_of_a_separated_cloud(dtype):
    """Guard against a vacuous screen that sends everything to the exact kernel."""
    rng = np.random.default_rng(5)
    seeds = rng.uniform(0.0, 1000.0, size=(80, 34))
    snapshot = make_snapshot(seeds.astype(dtype), np.arange(80), coverage=30.0)
    queries = seeds[rng.integers(0, 80, 512)] + rng.normal(0.0, 8.0, size=(512, 34))
    queries = queries.astype(dtype)
    _, undecided = snapshot._screen(queries)
    assert undecided.size <= 5
    np.testing.assert_array_equal(snapshot.predict_many(queries), exact_labels(snapshot, queries))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_non_finite_rows_match_the_exact_kernel(dtype):
    rng = np.random.default_rng(11)
    seeds = rng.uniform(0.0, 10.0, size=(12, 16))
    snapshot = make_snapshot(seeds.astype(dtype), np.arange(12), coverage=[2.0] * 12)
    queries = seeds[rng.integers(0, 12, 10)] + rng.normal(0.0, 0.3, size=(10, 16))
    queries[2, 3] = np.nan
    queries[4] = np.nan
    queries[6, 0] = np.inf
    queries[7, 5] = -np.inf
    # finite, but its squared distances overflow the kernel's precision
    queries[8] = 1e200 if dtype == np.float64 else 1e30
    expected = exact_labels(snapshot, queries)
    np.testing.assert_array_equal(snapshot.predict_many(queries), expected)
    assert expected[[2, 4]].tolist() == [OUTLIER, OUTLIER]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_negative_and_nan_coverage_match_the_exact_kernel(dtype):
    """A negative or NaN coverage covers nothing, as in the exact kernel."""
    rng = np.random.default_rng(13)
    seeds = rng.uniform(0.0, 10.0, size=(6, 8))
    coverage = [-1.0, np.nan, 0.0, 1.0, -0.5, 2.0]
    snapshot = make_snapshot(seeds.astype(dtype), np.arange(6), coverage=coverage)
    queries = np.repeat(seeds, 20, axis=0) + rng.normal(0.0, 0.3, size=(120, 8))
    queries[::7] = np.repeat(seeds, 20, axis=0)[::7]  # exactly on a seed
    expected = exact_labels(snapshot, queries)
    np.testing.assert_array_equal(snapshot.predict_many(queries), expected)
    assert OUTLIER in expected.tolist()


@pytest.mark.parametrize(
    "dtype, scale, coverage_mode",
    [
        (np.float64, 1e-155, "per-seed"),  # squared distances are subnormal
        (np.float64, 1e150, "per-seed"),  # squared norms near the top of the range
        (np.float32, 1e-21, "per-seed"),
        (np.float32, 1e18, "per-seed"),
        (np.float32, 1e19, "infinite"),  # the float32 kernel overflows to inf
    ],
)
def test_extreme_scales_match_the_exact_kernel(dtype, scale, coverage_mode):
    rng = np.random.default_rng(23)
    for _ in range(5):
        snapshot, queries = draw_case(rng, 16, 20, 300, 0.0, 1.0, coverage_mode, np.float64)
        seeds = (snapshot.seeds * scale).astype(dtype)
        scaled = make_snapshot(seeds, snapshot.labels, snapshot.coverage * scale)
        queries = queries * scale
        np.testing.assert_array_equal(scaled.predict_many(queries), exact_labels(scaled, queries))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float64, np.float32]))
def test_one_row_call_equals_that_row_of_a_batch_call(seed, dtype):
    rng = np.random.default_rng(seed)
    snapshot, queries = draw_case(rng, 34, 40, 200, 0.0, 40.0, "per-seed", dtype)
    batch = snapshot.predict_many(queries)
    for row in rng.choice(len(queries), size=25, replace=False):
        assert snapshot.predict_many(queries[row : row + 1])[0] == batch[row]
        assert snapshot.predict_one(queries[row]) == batch[row]


def test_blocked_queries_match_the_exact_kernel(monkeypatch):
    """Blocks smaller than the query set are screened one at a time."""
    monkeypatch.setattr(snapshot_module, "_BLOCK_ELEMENTS", 7 * 30)
    rng = np.random.default_rng(3)
    snapshot, queries = draw_case(rng, 16, 30, 100, 0.0, 40.0, "scalar", np.float64)
    np.testing.assert_array_equal(snapshot.predict_many(queries), exact_labels(snapshot, queries))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_shared_memory_hydrated_snapshot_returns_the_same_labels(dtype):
    rng = np.random.default_rng(17)
    snapshot, queries = draw_case(rng, 34, 50, 300, 1e6, 40.0, "per-seed", dtype)
    header, arrays = snapshot_to_buffers(snapshot)
    backing = {name: bytearray(array.tobytes()) for name, array in arrays.items()}
    hydrated = snapshot_from_buffers(header, backing)
    assert not hydrated.seeds.flags.writeable
    assert hydrated.seeds.dtype == dtype
    np.testing.assert_array_equal(hydrated.predict_many(queries), snapshot.predict_many(queries))
    np.testing.assert_array_equal(hydrated.predict_many(queries), exact_labels(snapshot, queries))


def test_low_dimensional_snapshots_keep_the_direct_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the screen ran below _SCREEN_MIN_DIM")

    monkeypatch.setattr(ClusterSnapshot, "_screen", refuse)
    rng = np.random.default_rng(2)
    dim = _SCREEN_MIN_DIM - 1
    snapshot = make_snapshot(rng.normal(size=(20, dim)), np.arange(20), coverage=1.0)
    queries = rng.normal(size=(50, dim))
    np.testing.assert_array_equal(snapshot.predict_many(queries), exact_labels(snapshot, queries))
