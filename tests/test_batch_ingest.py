"""Equivalence and unit tests for the micro-batch ingestion path.

The contract under test: ``EDMStream.learn_many(stream, batch_size=N)``
produces the same cell populations and cluster partitions as the sequential
per-point path, for every batch size, on numeric and non-numeric streams —
up to the canonical tie-breaking documented in :mod:`repro.core.batch`
(which both paths share, so in practice the results are identical).

Cell ids are process-global, so two models ingesting the same stream never
see the same ids; all cross-model comparisons are canonicalised through the
cell seeds (seeds are unique within a model: a duplicate point is always
absorbed, never promoted to a second seed).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.cellstore as cellstore
from repro import EDMStream
from repro.core.batch import BatchIngestor
from repro.core.cellstore import CellStore
from repro.distance.metrics import pairwise_euclidean
from repro.streams import NewsStreamGenerator, RBFDriftGenerator, SDSGenerator
from repro.streams.point import StreamPoint

BATCH_SIZES = (1, 7, 256)

#: ``summary()`` keys excluded from equivalence checks: the filter counters
#: legitimately differ between the two execution paths.
NON_STRUCTURAL_SUMMARY_KEYS = ("filter_stats",)


def canonical_seed(value):
    try:
        return tuple(value)
    except TypeError:
        return value


def canonical_partition(model):
    """Partition snapshot keyed by seeds instead of process-global cell ids."""
    seed_of = {cid: canonical_seed(model.tree.get(cid).seed) for cid in model.tree.ids()}
    return {
        seed_of[root]: frozenset(seed_of[m] for m in members)
        for root, members in model.partition_snapshot().items()
    }


def canonical_cells(model):
    """Every cell (active and inactive) keyed by seed."""
    cells = {}
    for cell in list(model.tree.cells()) + list(model.reservoir.cells()):
        cells[canonical_seed(cell.seed)] = (
            cell.density_at(model.now),
            cell.last_absorb,
            cell.cell_id in model.tree,
            cell.points_absorbed,
        )
    return cells


def structural_summary(model):
    summary = model.summary()
    for key in NON_STRUCTURAL_SUMMARY_KEYS:
        summary.pop(key)
    return summary


def canonical_assignment(cell_ids):
    """Rewrite an assignment sequence as first-occurrence indices."""
    first = {}
    out = []
    for cell_id in cell_ids:
        if cell_id not in first:
            first[cell_id] = len(first)
        out.append(first[cell_id])
    return out


def assert_same_cells(sequential, batched):
    """Cell populations match; densities to 1e-9 relative.

    The batch path applies one log-sum-exp per (cell, batch) where the
    sequential path applies Equation 8 per point — the same quantity
    evaluated in a different float association, so densities agree to
    rounding rather than bit-for-bit.  Everything discrete (membership,
    absorption counts, absorb times) must match exactly.
    """
    seq_cells = canonical_cells(sequential)
    bat_cells = canonical_cells(batched)
    assert set(bat_cells) == set(seq_cells)
    for seed, (density, last_absorb, active, absorbed) in seq_cells.items():
        b_density, b_last_absorb, b_active, b_absorbed = bat_cells[seed]
        assert b_density == pytest.approx(density, rel=1e-9)
        assert (b_last_absorb, b_active, b_absorbed) == (last_absorb, active, absorbed)


def assert_equivalent(sequential, batched, sequential_ids=None, batched_ids=None):
    assert canonical_partition(batched) == canonical_partition(sequential)
    assert_same_cells(sequential, batched)
    assert structural_summary(batched) == structural_summary(sequential)
    assert batched.evolution.counts() == sequential.evolution.counts()
    if sequential_ids is not None:
        assert canonical_assignment(batched_ids) == canonical_assignment(sequential_ids)


# --------------------------------------------------------------------- #
# equivalence: batch path == sequential path
# --------------------------------------------------------------------- #
class TestLearnManyEquivalence:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_synthetic_blobs(self, two_blob_stream, batch_size):
        def make():
            return EDMStream(radius=0.5, init_size=50, beta=0.001)

        sequential = make()
        sequential_ids = sequential.learn_many(two_blob_stream, batch_size=None)
        batched = make()
        batched_ids = batched.learn_many(two_blob_stream, batch_size=batch_size)
        assert_equivalent(sequential, batched, sequential_ids, batched_ids)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("decay_lambda", [1.0, 1000.0])
    def test_sds_synthetic(self, batch_size, decay_lambda):
        """At λ = 1000 the density keys grow by 6 over the 3 s stream."""
        stream = SDSGenerator(n_points=3000, rate=1000.0, seed=11).generate()

        def make():
            return EDMStream(
                radius=0.3, beta=0.0021, stream_rate=1000.0, decay_lambda=decay_lambda
            )

        sequential = make()
        sequential.learn_many(stream, batch_size=None)
        batched = make()
        batched.learn_many(stream, batch_size=batch_size)
        assert_equivalent(sequential, batched)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_drift_stream(self, batch_size):
        stream = RBFDriftGenerator(n_points=2500, n_kernels=4, drift_speed=1.0, seed=3).generate()

        def make():
            return EDMStream(radius=0.45, init_size=300, beta=0.001)

        sequential = make()
        sequential_ids = sequential.learn_many(stream, batch_size=None)
        batched = make()
        batched_ids = batched.learn_many(stream, batch_size=batch_size)
        assert_equivalent(sequential, batched, sequential_ids, batched_ids)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_jaccard_news_stream(self, batch_size):
        """Non-numeric path; exact distance ties are routine under Jaccard."""
        stream = NewsStreamGenerator(n_points=900, rate=100.0).generate()

        def make():
            return EDMStream(
                radius=0.4, metric="jaccard", init_size=100, beta=0.01, stream_rate=100.0
            )

        sequential = make()
        sequential_ids = sequential.learn_many(stream, batch_size=None)
        batched = make()
        batched_ids = batched.learn_many(stream, batch_size=batch_size)
        assert_equivalent(sequential, batched, sequential_ids, batched_ids)

    def test_incremental_batches_match_one_shot(self, two_blob_stream):
        """Feeding several learn_many calls equals feeding the stream once."""
        one_shot = EDMStream(radius=0.5, init_size=50, beta=0.001)
        one_shot.learn_many(two_blob_stream, batch_size=64)
        incremental = EDMStream(radius=0.5, init_size=50, beta=0.001)
        points = list(two_blob_stream)
        for start in range(0, len(points), 37):
            incremental.learn_many(points[start : start + 37], batch_size=64)
        assert_equivalent(one_shot, incremental)

    def test_pruned_nearest_path_preserves_equivalence(self, monkeypatch):
        """Full ingest equivalence with the pruned scan engaged.

        The default prune threshold (512 cells) is rarely reached by
        test-sized streams, so lower it to force every assignment query in
        the batch path through the windowed screen of
        ``cellstore._nearest_screened`` (norm window, Gram screen and bound)
        — including stores churned by activation/deactivation swap-deletes
        and capacity growth.
        """
        from repro.core.cellstore import CellStore

        stream = RBFDriftGenerator(n_points=2500, n_kernels=4, drift_speed=1.0, seed=3).generate()

        def make():
            return EDMStream(radius=0.45, init_size=300, beta=0.001)

        sequential = make()
        sequential.learn_many(stream, batch_size=None)
        monkeypatch.setattr(CellStore, "prune_threshold", 8)
        batched = make()
        batched.learn_many(stream, batch_size=256)
        assert_equivalent(sequential, batched)

    def test_auto_timestamps_match_sequential(self):
        rng = np.random.default_rng(5)
        values = rng.normal((0.0, 0.0), 0.5, size=(400, 2))
        sequential = EDMStream(radius=0.5, init_size=50, stream_rate=100.0)
        for row in values:
            sequential.learn_one(tuple(row))
        batched = EDMStream(radius=0.5, init_size=50, stream_rate=100.0)
        batched.learn_many(
            [StreamPoint(values=tuple(row), timestamp=None) for row in values],
            batch_size=64,
        )
        assert batched.now == sequential.now
        assert_equivalent(sequential, batched)


# --------------------------------------------------------------------- #
# BatchIngestor unit behaviour
# --------------------------------------------------------------------- #
class TestBatchIngestor:
    def test_rejects_non_positive_batch_size(self):
        with pytest.raises(ValueError):
            BatchIngestor(EDMStream(), batch_size=0)

    def test_empty_stream(self):
        model = EDMStream()
        assert model.learn_many([], batch_size=16) == []
        assert model.n_points == 0

    def test_returns_one_cell_id_per_point(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        assigned = model.learn_many(two_blob_stream, batch_size=32)
        assert len(assigned) == len(two_blob_stream)
        assert model.n_points == len(two_blob_stream)
        assert all(isinstance(cell_id, int) for cell_id in assigned)

    def test_initialization_fires_inside_a_batch(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=50)
        model.learn_many(list(two_blob_stream)[:60], batch_size=256)
        assert model.initialized
        assert model.tau is not None

    @pytest.mark.parametrize("gap", [10.0, 1e6])
    def test_an_idle_gap_inside_a_chunk_keeps_an_earlier_activation(self, gap):
        """An inactive cell crosses the threshold, then idles inside the same chunk.

        After a gap of 1e6 s the early points' arrival keys lie ~2000 below
        the last one's, so a trajectory shifted by the group's largest term
        would underflow them and miss the crossing; the per-point engine
        activates the cell, which then survives the sweep as the densest.
        """
        head = [StreamPoint(values=(0.001 * i, 0.0), timestamp=0.001 * i) for i in range(30)]
        burst = [StreamPoint(values=(5.0, 5.0), timestamp=0.03 + 0.001 * i) for i in range(10)]
        late = [StreamPoint(values=(5.0, 5.0), timestamp=0.039 + gap)]

        def make():
            return EDMStream(radius=0.5, init_size=20, beta=0.01, stream_rate=100.0)

        sequential = make()
        sequential.learn_many(head + burst + late, batch_size=None)
        batched = make()
        batched.learn_many(head, batch_size=256)
        batched.learn_many(burst + late, batch_size=256)
        assert (5.0, 5.0) in {tuple(cell.seed) for cell in sequential.tree.cells()}
        assert_equivalent(sequential, batched)

    @pytest.mark.parametrize("origin", [0.0, 1.7e9])
    def test_a_threshold_key_is_the_same_at_one_time_and_among_many(self, origin):
        """``learn_one`` reads thresholds one at a time, the batch engine a chunk's at once.

        Python's ``**``/``math.log`` and numpy's differ in the last bit on
        about one time in a hundred, so 4,000 times would catch a second
        formula.
        """
        model = EDMStream(radius=1.0, beta=0.01, stream_rate=100.0)
        model.learn_one((0.0,), timestamp=origin)
        times = origin + np.random.default_rng(5).uniform(0.0, 1e3, 4000)
        assert [model._threshold_key(t) for t in times.tolist()] == (
            model._threshold_keys(times).tolist()
        )

    def test_close_points_share_a_cell_within_one_batch(self):
        model = EDMStream(radius=0.5)
        points = [
            StreamPoint(values=(0.0, 0.0), timestamp=0.0),
            StreamPoint(values=(0.1, 0.1), timestamp=0.001),
            StreamPoint(values=(5.0, 5.0), timestamp=0.002),
        ]
        first, second, third = model.learn_many(points, batch_size=3)
        assert first == second
        assert third != first

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_chunk_created_seed_is_measured_like_the_per_point_path(self, dtype):
        """A point 0.300000026 from a seed made earlier in the same chunk.

        In float32 the two rows are 0.29999965 apart, inside ``r = 0.3``, so
        the per-point path absorbs the second point; the batch path must
        measure the chunk's new seeds on the same arena-dtype rows with the
        same kernel, and absorb it too.  In float64 both paths create two
        cells.
        """
        a = 6.369616873214543
        points = [
            StreamPoint(values=(a, 0.0), timestamp=0.0),
            StreamPoint(values=(a + 0.300000026, 0.0), timestamp=0.001),
        ]
        counts = []
        for batch_size in (None, 256):
            model = EDMStream(radius=0.3, dtype=dtype)
            ids = model.learn_many(points, batch_size=batch_size)
            counts.append((len(set(ids)), model.n_inactive_cells))
        expected = 1 if dtype == "float32" else 2
        assert counts == [(expected, expected)] * 2

    def test_tie_between_an_old_seed_and_a_new_one_goes_to_the_old(self):
        """Equidistant from an old seed and a seed made earlier in the chunk.

        The dyadic coordinates make both distances exactly 0.625, so the
        smallest id — the old seed's — must win in both engines.
        """
        first = [StreamPoint(values=(0.0, 0.0), timestamp=0.0)]
        chunk = [
            StreamPoint(values=(1.0, 0.0), timestamp=0.001),  # a new seed
            StreamPoint(values=(0.5, 0.375), timestamp=0.002),  # 0.625 from both
        ]
        results = []
        for batch_size in (None, 256):
            model = EDMStream(radius=0.7)
            (old,) = model.learn_many(first, batch_size=batch_size)
            new, tied = model.learn_many(chunk, batch_size=batch_size)
            assert new != old
            results.append(tied == old)
        assert results == [True, True]


# --------------------------------------------------------------------- #
# CellStore bulk queries
# --------------------------------------------------------------------- #
class TestCellStoreBulkQueries:
    def make_store(self, n=300, dim=5, seed=0):
        rng = np.random.default_rng(seed)
        store = CellStore(numeric=True)
        points = rng.normal(size=(n, dim))
        for row in points:
            store.add(store.arrays.create(tuple(row)))
        return store, points, rng

    def test_distances_to_many_rows_match_distances_to(self):
        store, _, rng = self.make_store()
        queries = rng.normal(size=(40, 5))
        matrix = store.distances_to_many(queries)
        for row, query in enumerate(queries):
            assert np.array_equal(matrix[row], store.distances_to(tuple(query)))

    def test_nearest_many_matches_row_minima(self):
        store, _, rng = self.make_store()
        queries = rng.normal(size=(64, 5))
        best, best_id = store.nearest_many(queries)
        matrix = store.distances_to_many(queries)
        ids = np.asarray(store.ids())
        assert np.array_equal(best, matrix.min(axis=1))
        assert np.array_equal(best_id, ids[np.argmin(matrix, axis=1)])

    def test_nearest_many_pruned_is_exact_within_radius(self):
        store, _, rng = self.make_store(n=600)
        # Churn the store so the pruned path sees swap-deleted norm slots.
        for cell_id in list(store.ids())[::7]:
            store.remove(cell_id)
        points = np.asarray([store.get(cid).seed for cid in store.ids()])
        # Queries near existing seeds so the nearest is within the radius.
        queries = points[rng.choice(len(points), size=80, replace=False)] + rng.normal(
            scale=0.01, size=(80, 5)
        )
        radius = 0.2
        best, best_id = store.nearest_many(queries, within=radius)
        exact, exact_id = store.nearest_many(queries)
        within = exact <= radius
        assert within.any()
        assert np.array_equal(best[within], exact[within])
        assert np.array_equal(best_id[within], exact_id[within])
        # Beyond the radius the pruned query only promises "nothing within".
        assert np.all(best[~within] > radius)

    def test_cross_distances_rows_match_distances_to(self):
        store, _, _ = self.make_store(n=50)
        positions = np.asarray([0, 7, 23])
        matrix = store.cross_distances(positions)
        for row, position in enumerate(positions):
            seed = store.get(store.ids()[int(position)]).seed
            assert np.array_equal(matrix[row], store.distances_to(seed))

    def test_nearest_many_empty_store(self):
        store = CellStore(numeric=True)
        assert store.nearest_many([(0.0, 0.0)]) == (None, None)


class TestPairwiseEuclidean:
    def test_symmetry_to_the_last_bit(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(30, 7))
        b = rng.normal(size=(45, 7))
        assert np.array_equal(pairwise_euclidean(a, b), pairwise_euclidean(b, a).T)

    def test_matches_scalar_euclidean(self):
        from repro.distance import euclidean

        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 4))
        b = rng.normal(size=(12, 4))
        matrix = pairwise_euclidean(a, b)
        for i in range(10):
            for j in range(12):
                assert matrix[i, j] == pytest.approx(euclidean(a[i], b[j]), rel=1e-9)

    def test_einsum_fallback_without_scipy(self, monkeypatch):
        """The numpy fallback (scipy absent) stays symmetric and equivalent."""
        import repro.distance.metrics as metrics

        monkeypatch.setattr(metrics, "_cdist", None)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(15, 6))
        b = rng.normal(size=(20, 6))
        matrix = metrics.pairwise_euclidean(a, b)
        assert np.array_equal(matrix, metrics.pairwise_euclidean(b, a).T)

        stream = SDSGenerator(n_points=1200, rate=1000.0, seed=13).generate()
        sequential = EDMStream(radius=0.3, beta=0.0021, stream_rate=1000.0)
        sequential.learn_many(stream, batch_size=None)
        batched = EDMStream(radius=0.3, beta=0.0021, stream_rate=1000.0)
        batched.learn_many(stream, batch_size=64)
        assert_equivalent(sequential, batched)


# --------------------------------------------------------------------- #
# property: batch engine == per-point engine on adversarial streams
# --------------------------------------------------------------------- #
# Random small streams go through both engines, which must return the same
# absorbing cell per point and end with the same seed-keyed cells and the
# same partition.  The streams are built to hit the batch engine's
# decisions where they are closest:
#
# * exact duplicates of recent points;
# * runs of 1–5 copies of the point just before, which the batch engine
#   assigns once per run, across chunk, init and periodic boundaries; a
#   copy that differs only below float32 precision (x·(1 + 2⁻³⁰), one run
#   in a float32 arena, two rows in a float64 one); a 0.0 coordinate
#   followed by a copy with -0.0 (equal values, different bytes: two rows);
# * points at r·(1 ± 2⁻⁴⁰) (and at exactly r) from a recent point, so often
#   from a seed created earlier in the same chunk;
# * points exactly equidistant from two recent points — an old seed and a
#   seed new in the chunk, or two new seeds — on a dyadic grid where every
#   distance is exact, so the tie rule decides;
# * bursts of 2–6 new points pairwise within r of each other and far from
#   every centre, so a chunk holds several candidates that conflict, and
#   the leader pass must pick its leaders among them in arrival order;
# * float64 and float32 arenas, batch sizes 1, 7, 64 and 256, and the
#   scan's Gram screen forced on (windowed or over all seeds) or left to
#   its size rules.

PROPERTY_RADIUS = 1.0
#: Dyadic grid step: sums of squares of such coordinates stay exact.
STEP = 0.125

ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "fresh",
                "fresh",
                "duplicate",
                "ring",
                "ring",
                "bisect",
                "repeat",
                "near",
                "zero",
                "burst",
            ]
        ),
        st.integers(min_value=0, max_value=2**16),
    ),
    min_size=16,
    max_size=90,
)


def build_stream(ops, dim):
    """Points for ``ops``; each op draws its randomness from its own integer."""
    centres = np.asarray([[0.0] * dim, [1.5] + [0.0] * (dim - 1), [0.0, 2.0] + [0.5] * (dim - 2)])
    values = []
    for kind, draw in ops:
        rng = np.random.default_rng(draw)
        recent = values[-8:]
        if kind == "duplicate" and recent:
            point = recent[rng.integers(len(recent))]
        elif kind == "repeat" and recent:
            values.extend([recent[-1]] * int(rng.integers(0, 5)))
            point = recent[-1]
        elif kind == "near" and recent:
            point = np.asarray(recent[-1]) * (1.0 + 2.0**-30)
        elif kind == "zero" and recent:
            values.append((0.0,) + recent[-1][1:])
            point = (-0.0,) + recent[-1][1:]
        elif kind == "ring" and recent:
            base = np.asarray(recent[rng.integers(len(recent))])
            direction = rng.normal(size=dim)
            direction /= np.linalg.norm(direction)
            scale = PROPERTY_RADIUS * (1.0 + float(rng.choice([-1.0, 0.0, 1.0])) * 2.0**-40)
            point = base + scale * direction
        elif kind == "burst":
            # Offsets on the dyadic grid in the first two coordinates, at
            # most 0.25·√2 from the centre: pairwise at most 0.71 < r apart.
            far = np.zeros(dim)
            far[0] = 40.0 * int(rng.integers(1, 1000))
            for _ in range(int(rng.integers(1, 6))):
                offset = np.zeros(dim)
                offset[:2] = STEP * rng.integers(-2, 3, size=2)
                values.append(tuple(float(x) for x in far + offset))
            point = far
        elif kind == "bisect" and len(recent) >= 2:
            i, j = rng.choice(len(recent), size=2, replace=False)
            a, b = np.asarray(recent[i]), np.asarray(recent[j])
            # The midpoint plus a multiple of a vector orthogonal to b - a in
            # the first two coordinates: exactly as far from a as from b
            # while every coordinate stays on a fine dyadic grid.
            offset = np.zeros(dim)
            offset[0], offset[1] = a[1] - b[1], b[0] - a[0]
            point = (a + b) / 2.0 + STEP * int(rng.integers(-3, 4)) * offset
        else:
            centre = centres[rng.integers(len(centres))]
            point = centre + STEP * rng.integers(-8, 9, size=dim)
        values.append(tuple(float(x) for x in point))
    return [StreamPoint(values=v, timestamp=0.001 * i) for i, v in enumerate(values)]


@settings(max_examples=60, deadline=None)
@given(
    ops,
    st.sampled_from([2, 3, 9]),
    st.sampled_from(["float64", "float32"]),
    st.sampled_from([1, 7, 64, 256]),
    st.sampled_from(["default", "windowed", "unwindowed"]),
)
def test_batch_engine_matches_the_per_point_engine(ops, dim, dtype, batch_size, scan):
    points = build_stream(ops, dim)
    saved = CellStore.prune_threshold, cellstore._SCAN_SCREEN_MIN_WORK
    try:
        if scan == "windowed":
            CellStore.prune_threshold = 0
        elif scan == "unwindowed":
            cellstore._SCAN_SCREEN_MIN_WORK = 0

        def make():
            return EDMStream(
                radius=PROPERTY_RADIUS, init_size=12, beta=0.05, stream_rate=1000.0, dtype=dtype
            )

        sequential = make()
        sequential_ids = sequential.learn_many(points, batch_size=None)
        batched = make()
        batched_ids = batched.learn_many(points, batch_size=batch_size)
    finally:
        CellStore.prune_threshold, cellstore._SCAN_SCREEN_MIN_WORK = saved
    assert_equivalent(sequential, batched, sequential_ids, batched_ids)
    # Same absorbing cell per point, not just the same pattern: the two
    # models' ids differ by the offset of their first cell.
    offset = batched_ids[0] - sequential_ids[0]
    assert [i + offset for i in sequential_ids] == batched_ids
    batched.tree.validate()
    batched.reservoir.validate()


def test_the_stream_builder_makes_exact_ties():
    """The bisect op places points exactly equidistant from two others."""
    points = build_stream([("fresh", 1), ("fresh", 2), ("bisect", 3)], dim=3)
    a, b, p = (np.asarray(point.values) for point in points)
    assert np.sum((p - a) ** 2) == np.sum((p - b) ** 2)


def test_the_stream_builder_makes_bursts_of_conflicting_new_points():
    """A burst adds 2–6 points far from the centres, pairwise within r."""
    points = build_stream([("fresh", 1), ("burst", 2), ("burst", 3)], dim=3)
    rows = np.asarray([point.values for point in points])
    assert 5 <= len(rows) <= 13
    burst = rows[np.linalg.norm(rows - rows[-1], axis=1) < 10.0]
    assert 2 <= len(burst) <= 6
    assert pairwise_euclidean(burst, burst).max() <= PROPERTY_RADIUS
    assert np.linalg.norm(burst[0] - rows[0]) > 30.0


def test_the_stream_builder_makes_runs_and_near_copies():
    """repeat copies the point before 1–5 times; near and zero copy it almost."""
    points = build_stream([("fresh", 1), ("repeat", 2), ("near", 3), ("zero", 4)], dim=3)
    rows = [point.values for point in points]
    copies = rows[1:-3]
    assert 1 <= len(copies) <= 5
    assert copies == [rows[0]] * len(copies)
    near, zero, negative = rows[-3:]
    assert near != rows[0]
    assert np.array_equal(np.float32(near), np.float32(rows[0]))
    assert zero == negative and str(zero[0]) == "0.0" and str(negative[0]) == "-0.0"


# --------------------------------------------------------------------- #
# runs of repeated rows
# --------------------------------------------------------------------- #


def test_a_copy_after_a_new_leader_goes_to_the_nearer_leader():
    """Stream ``[a, b, a]`` after an old seed at the origin, ``r = 1``.

    ``a`` goes to the origin (0.9); ``b`` is 1.5 from it and seeds a cell;
    the second ``a`` is 0.9 from the origin and 0.6 from ``b``, so it goes
    to ``b`` in both engines.  Copies that are not adjacent must not share
    an assignment.
    """
    first = [StreamPoint(values=(0.0, 0.0), timestamp=0.0)]
    chunk = [
        StreamPoint(values=(0.9, 0.0), timestamp=0.001),
        StreamPoint(values=(1.5, 0.0), timestamp=0.002),
        StreamPoint(values=(0.9, 0.0), timestamp=0.003),
    ]
    for batch_size in (None, 256):
        model = EDMStream(radius=1.0)
        (origin,) = model.learn_many(first, batch_size=batch_size)
        a, b, again = model.learn_many(chunk, batch_size=batch_size)
        assert (a, b != origin, again) == (origin, True, b)


@pytest.mark.parametrize("old_seed", [False, True])
def test_a_chain_of_candidates_leads_from_both_ends(old_seed):
    """Candidates ``a, b, c`` with d(a, b) ≤ r, d(b, c) ≤ r and d(a, c) > r.

    ``a`` seeds a cell, ``b`` lies within r of it and goes to it, and ``c``
    is within r of ``b`` only, which never led, so ``c`` seeds the second
    cell: the leaders are ``a`` and ``c`` in both engines, with and without
    an old seed for the scan to find beforehand.
    """
    first = [StreamPoint(values=(-50.0, 0.0), timestamp=0.0)] if old_seed else []
    chain = [
        StreamPoint(values=(0.0, 0.0), timestamp=0.001),
        StreamPoint(values=(0.75, 0.0), timestamp=0.002),
        StreamPoint(values=(1.5, 0.0), timestamp=0.003),
    ]
    for batch_size in (None, 256):
        model = EDMStream(radius=1.0, telemetry=True)
        model.learn_many(first, batch_size=batch_size)
        a, b, c = model.learn_many(chain, batch_size=batch_size)
        assert b == a and c != a
        seeds = {model._cells.view(cell_id).seed for cell_id in (a, c)}
        assert seeds == {(0.0, 0.0), (1.5, 0.0)}
        created = model.obs.registry.counter("cells_created_total").value
        assert created == len(first) + 2


def test_zero_dimensional_rows_share_one_cell():
    """0-d rows have no bytes to compare; both engines put them in one cell."""
    points = [StreamPoint(values=(), timestamp=0.001 * i) for i in range(3)]
    for batch_size in (None, 256):
        ids = EDMStream(radius=0.5).learn_many(points, batch_size=batch_size)
        assert len(set(ids)) == 1


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_repeated_rows_are_counted_once_per_run(dtype):
    """``ingest_rows_repeated_total`` counts the rows that reused their head's assignment.

    The near copy is one row with its original in a float32 arena only;
    the ``-0.0`` copy is never merged.
    """
    x = (0.3, 0.0)
    near = (0.3 * (1.0 + 2.0**-30), 0.0)
    rows = [x, x, x, near, (5.0, 5.0), (5.0, 5.0), (0.3, -0.0), x]
    points = [StreamPoint(values=v, timestamp=0.001 * i) for i, v in enumerate(rows)]
    model = EDMStream(radius=0.5, dtype=dtype, telemetry=True)
    ids = model.learn_many(points, batch_size=256)
    repeated = model.obs.registry.counter("ingest_rows_repeated_total").value
    assert repeated == (4 if dtype == "float32" else 3)
    assert ids == [ids[0]] * 4 + [ids[4]] * 2 + [ids[0]] * 2
    assert model.n_inactive_cells == 2
