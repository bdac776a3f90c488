"""Tests for the dependency-update filters (Theorems 1 and 2) and their counters.

The filters run inline in the per-point engine
(``EDMStream._update_dependencies``).  The tests below replay
streams point by point, work out from the model's state before each
absorption which candidates each theorem lets the model skip, and check the
model's counters against that, step by step.  Their effect on the clustering
is checked in ``tests/test_edmstream.py::TestFilters`` and, on larger
streams, in :class:`TestFiltersOnLargerStreams`.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro import EDMStream
from repro.core.decay import log_add
from repro.core.filters import FilterStatistics
from repro.harness.experiments import choose_radius
from repro.streams import SDSGenerator
from repro.streams.point import StreamPoint
from repro.streams.real import kddcup99_surrogate
from repro.streams.stream import DataStream

STREAMS = ["two_blob_stream", "three_blob_stream", "sds_stream", "lattice_stream"]


@pytest.fixture(scope="module")
def sds_stream():
    return SDSGenerator(n_points=3000, rate=1000.0, seed=7).generate()


@pytest.fixture(scope="module")
def lattice_stream():
    """Integer points on a line, all at one timestamp.

    Nothing decays, so densities are whole counts and seed distances whole
    numbers: the theorems' boundary cases (rho_c equal to the absorber's
    density, | |p,s_c| - |p,s_c'| | equal to delta_c) occur again and again.
    """
    values = np.random.default_rng(5).integers(0, 12, size=400)
    points = [
        StreamPoint(values=(float(v),), timestamp=0.0, point_id=i) for i, v in enumerate(values)
    ]
    return DataStream(points=points, name="lattice", rate=1000.0)


@dataclass
class Absorption:
    """One absorption by an active cell, as Theorems 1 and 2 judge it."""

    candidates: np.ndarray  # bool mask over the active cells: every cell but the absorber
    already_below: np.ndarray  # rho_c < rho_c' before the absorption (Theorem 1, case 1)
    still_above: np.ndarray  # c' does not dominate c after it (Theorem 1, case 2)
    density_skip: np.ndarray  # what the density filter may skip, if on
    triangle_skip: np.ndarray  # what the triangle filter may skip among the rest, if on
    densities: np.ndarray  # the density key of every active cell before the absorption
    rho_before: float  # the absorber's density key just before it absorbs the point
    point_gap: np.ndarray  # | |p,s_c| - |p,s_c'| | for every active cell
    deltas: np.ndarray
    seed_to_absorber: np.ndarray  # |s_c, s_c'| for every active cell
    counted: dict  # the model's counter increments for this point


def counter_increments(before: dict, after: dict) -> dict:
    keys = ("candidates", "density_filtered", "triangle_filtered")
    return {key: after[key] - before[key] for key in keys}


def replay(model, stream):
    """Feed ``stream`` point by point; return every absorption by an active cell.

    Also asserts that points not absorbed by an active cell of an
    initialised model leave the filter counters untouched.
    """
    density_on = model.config.enable_density_filter
    triangle_on = model.config.enable_triangle_filter
    absorptions = []
    for point in stream:
        now = point.timestamp
        before = model.filter_stats.as_dict()
        state = None
        if model.initialized and len(model.tree) > 1:
            store = model._active
            ids = store.ids_array().copy()
            distances = store.distances_to(point.values)
            nearest = ids[distances == distances.min()]
            state = dict(
                ids=ids,
                # Keys order the cells as their densities at ``now`` do.
                densities=store.keys(),
                deltas=store.deltas().copy(),
                distances=distances,
                seeds=store.seed_view().copy(),
                rho_before={int(cell_id): model.tree.get(int(cell_id)).key for cell_id in nearest},
                arrival=model._cells.arrival_key(max(model.now, now)),
            )
        absorber = model.learn_one(point.values, timestamp=now, label=point.label)
        counted = counter_increments(before, model.filter_stats.as_dict())
        if state is None or absorber not in state["rho_before"]:
            assert counted == dict.fromkeys(counted, 0)
            continue

        ids, densities, deltas = state["ids"], state["densities"], state["deltas"]
        distances = state["distances"]
        position = int(np.flatnonzero(ids == absorber)[0])
        rho_before = state["rho_before"][absorber]
        rho_after = log_add(rho_before, state["arrival"])
        candidates = ids != absorber
        dominated_after = (densities < rho_after) | ((densities == rho_after) & (ids > absorber))
        already_below = candidates & (densities < rho_before)
        still_above = candidates & ~dominated_after
        density_skip = (already_below | still_above) if density_on else np.zeros_like(candidates)
        remaining = candidates & ~density_skip
        point_gap = np.abs(distances - distances[position])
        triangle_skip = remaining & (point_gap > deltas) if triangle_on else np.zeros_like(candidates)
        seeds = state["seeds"]
        absorptions.append(
            Absorption(
                candidates=candidates,
                already_below=already_below,
                still_above=still_above,
                density_skip=density_skip,
                triangle_skip=triangle_skip,
                densities=densities,
                rho_before=rho_before,
                point_gap=point_gap,
                deltas=deltas,
                seed_to_absorber=np.asarray([math.dist(seed, seeds[position]) for seed in seeds]),
                counted=counted,
            )
        )
    return absorptions


def replay_with(stream, density, triangle):
    model = EDMStream(
        radius=0.3 if stream.name == "SDS" else 0.4,
        init_size=60,
        beta=0.001,
        stream_rate=1000.0,
        enable_density_filter=density,
        enable_triangle_filter=triangle,
    )
    absorptions = replay(model, stream)
    assert len(absorptions) > 20
    return absorptions


def assert_counts_match(absorptions):
    for absorption in absorptions:
        assert absorption.counted == {
            "candidates": int(np.count_nonzero(absorption.candidates)),
            "density_filtered": int(np.count_nonzero(absorption.density_skip)),
            "triangle_filtered": int(np.count_nonzero(absorption.triangle_skip)),
        }


class TestTheoremOne:
    @pytest.mark.parametrize("stream_name", STREAMS)
    def test_skips_exactly_the_candidates_the_absorber_cannot_newly_dominate(
        self, request, stream_name
    ):
        stream = request.getfixturevalue(stream_name)
        absorptions = replay_with(stream, density=True, triangle=False)
        assert_counts_match(absorptions)
        assert sum(a.counted["density_filtered"] for a in absorptions) > 0

    def test_both_skip_cases_and_the_examined_case_occur(self, three_blob_stream):
        absorptions = replay_with(three_blob_stream, density=True, triangle=False)
        assert_counts_match(absorptions)
        assert sum(int(np.count_nonzero(a.already_below)) for a in absorptions) > 0
        assert sum(int(np.count_nonzero(a.still_above)) for a in absorptions) > 0
        # Newly dominated candidates (rho_before <= rho_c < rho_after) are examined.
        examined = sum(
            int(np.count_nonzero(a.candidates & ~a.density_skip)) for a in absorptions
        )
        assert examined > 0

    def test_a_candidate_as_dense_as_the_absorber_was_is_examined(self, lattice_stream):
        """rho_c == rho_c' before: the absorber newly dominates c, so no skip."""
        absorptions = replay_with(lattice_stream, density=True, triangle=False)
        assert_counts_match(absorptions)
        level = 0
        for absorption in absorptions:
            level_with = absorption.candidates & (absorption.densities == absorption.rho_before)
            assert not np.any(absorption.density_skip & level_with)
            level += int(np.count_nonzero(level_with))
        assert level > 0


class TestTheoremTwo:
    @pytest.mark.parametrize("stream_name", STREAMS)
    def test_skips_exactly_the_candidates_too_far_from_the_point(self, request, stream_name):
        stream = request.getfixturevalue(stream_name)
        absorptions = replay_with(stream, density=False, triangle=True)
        assert_counts_match(absorptions)
        assert sum(a.counted["triangle_filtered"] for a in absorptions) > 0

    @pytest.mark.parametrize("stream_name", STREAMS)
    def test_skipped_candidates_lie_farther_from_the_absorber_than_delta(
        self, request, stream_name
    ):
        """|s_c, s_c'| >= | |p,s_c| - |p,s_c'| | > delta_c, so c' cannot be c's dependency."""
        stream = request.getfixturevalue(stream_name)
        absorptions = replay_with(stream, density=False, triangle=True)
        skipped = 0
        for absorption in absorptions:
            mask = absorption.triangle_skip
            assert np.all(absorption.seed_to_absorber[mask] > absorption.deltas[mask])
            skipped += int(np.count_nonzero(mask))
        assert skipped > 0

    def test_root_candidates_are_never_skipped(self, three_blob_stream):
        absorptions = replay_with(three_blob_stream, density=False, triangle=True)
        assert_counts_match(absorptions)
        roots = 0
        for absorption in absorptions:
            is_root = absorption.candidates & np.isinf(absorption.deltas)
            assert not np.any(absorption.triangle_skip & is_root)
            roots += int(np.count_nonzero(is_root))
        assert roots > 0

    def test_a_candidate_exactly_delta_away_is_examined(self, lattice_stream):
        """| |p,s_c| - |p,s_c'| | == delta_c does not prove |s_c, s_c'| > delta_c."""
        absorptions = replay_with(lattice_stream, density=False, triangle=True)
        assert_counts_match(absorptions)
        boundary = 0
        for absorption in absorptions:
            at_delta = absorption.candidates & (absorption.point_gap == absorption.deltas)
            assert not np.any(absorption.triangle_skip & at_delta)
            boundary += int(np.count_nonzero(at_delta))
        assert boundary > 0


class TestBothFilters:
    @pytest.mark.parametrize("stream_name", STREAMS)
    def test_triangle_filter_sees_only_the_density_survivors(self, request, stream_name):
        stream = request.getfixturevalue(stream_name)
        absorptions = replay_with(stream, density=True, triangle=True)
        assert_counts_match(absorptions)
        for absorption in absorptions:
            assert not np.any(absorption.density_skip & absorption.triangle_skip)

    def test_disabled_filters_never_skip(self, three_blob_stream):
        absorptions = replay_with(three_blob_stream, density=False, triangle=False)
        assert_counts_match(absorptions)
        assert sum(a.counted["candidates"] for a in absorptions) > 0
        assert all(
            a.counted["density_filtered"] == a.counted["triangle_filtered"] == 0
            for a in absorptions
        )


def seed_keyed_tree(model):
    """The DP-Tree as {seed: (dependency's seed, delta)} over active cells."""
    seed_of = {cell.cell_id: tuple(cell.seed) for cell in model.tree.cells()}
    return {
        tuple(cell.seed): (seed_of.get(cell.dependency), cell.delta)
        for cell in model.tree.cells()
    }


def run_per_point(stream, radius, density, triangle):
    model = EDMStream(
        radius=radius,
        beta=0.0021,
        stream_rate=1000.0,
        enable_density_filter=density,
        enable_triangle_filter=triangle,
    )
    for point in stream:
        model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
    return model


@pytest.fixture(scope="module")
def larger_streams():
    sds = SDSGenerator(n_points=6000, rate=1000.0, seed=7).generate()
    kdd = kddcup99_surrogate(n_points=4000, seed=23)
    return {"sds": (sds, 0.3), "kdd": (kdd, choose_radius(kdd))}


@pytest.fixture(scope="module")
def unfiltered_trees(larger_streams):
    return {
        name: seed_keyed_tree(run_per_point(stream, radius, False, False))
        for name, (stream, radius) in larger_streams.items()
    }


class TestFiltersOnLargerStreams:
    @pytest.mark.parametrize("name", ["sds", "kdd"])
    @pytest.mark.parametrize("density", [True, False])
    @pytest.mark.parametrize("triangle", [True, False])
    def test_seed_keyed_tree_matches_the_unfiltered_run(
        self, larger_streams, unfiltered_trees, name, density, triangle
    ):
        stream, radius = larger_streams[name]
        model = run_per_point(stream, radius, density, triangle)
        assert len(model.tree) > 10
        assert seed_keyed_tree(model) == unfiltered_trees[name]
        stats = model.filter_stats
        assert (stats.density_filtered > 0) == density
        assert (stats.triangle_filtered > 0) == triangle


def test_a_link_cut_for_want_of_a_dominator_counts_as_a_change():
    """Deactivating the only dominator leaves its child a root: one change."""
    model = EDMStream(radius=0.5, beta=0.01, init_size=4, stream_rate=10.0)
    for values in [(0.0, 0.0)] * 3 + [(3.0, 0.0)]:
        model.learn_one(values)
    assert model.initialized
    root, child = sorted(model.tree.ids(), key=lambda cid: model.tree.get(cid).seed)
    assert model.tree.get(child).dependency == root
    changes = model.filter_stats.dependency_changes
    model._deactivate_cells([root])
    assert model.tree.get(child).dependency is None
    assert model.filter_stats.dependency_changes == changes + 1


class TestFilterStatistics:
    def test_filter_rate(self):
        stats = FilterStatistics(candidates=10, density_filtered=6, triangle_filtered=2)
        assert stats.filtered == 8
        assert stats.filter_rate == pytest.approx(0.8)

    def test_filter_rate_with_no_candidates(self):
        assert FilterStatistics().filter_rate == 0.0

    def test_as_dict_round_trip(self):
        stats = FilterStatistics(candidates=4, density_filtered=1, triangle_filtered=1,
                                 distance_computations=2, dependency_changes=1)
        payload = stats.as_dict()
        assert payload["candidates"] == 4
        assert payload["filter_rate"] == pytest.approx(0.5)
