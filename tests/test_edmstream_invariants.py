"""Property-based invariant tests for EDMStream.

These use hypothesis to generate small random streams and assert structural
invariants that must hold after any sequence of arrivals:

* the DP-Tree is a consistent, acyclic forest;
* every dependency points to a cell with (weakly) higher timely density;
* the vectorised cell-store caches stay coherent with the cell objects;
* the MSDSubTree extraction partitions the active cells;
* every cell lives in exactly one of {DP-Tree, outlier reservoir};
* the arena holds exactly those cells, through any mix of public calls.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EDMStream
from repro.core.soa import MEMBER
from repro.streams.point import StreamPoint


point_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    ),
    min_size=5,
    max_size=120,
)


def build_model(points, **kwargs):
    params = dict(radius=0.8, init_size=5, beta=0.01, stream_rate=100.0)
    params.update(kwargs)
    model = EDMStream(**params)
    for i, values in enumerate(points):
        model.learn_one(values, timestamp=i / 100.0)
    return model


@settings(max_examples=25, deadline=None)
@given(point_lists)
def test_tree_structure_is_consistent(points):
    model = build_model(points)
    model.tree.validate()


@settings(max_examples=25, deadline=None)
@given(point_lists)
def test_dependencies_point_to_denser_cells(points):
    model = build_model(points)
    for cell in model.tree.cells():
        if cell.dependency is None or cell.dependency not in model.tree:
            continue
        parent = model.tree.get(cell.dependency)
        # Density keys order the cells as their densities do at any time.
        assert (parent.key > cell.key) or (
            parent.key == cell.key and parent.cell_id < cell.cell_id
        ), "dependency must have (weakly) higher density"


@settings(max_examples=25, deadline=None)
@given(point_lists)
def test_cell_store_caches_stay_coherent(points):
    model = build_model(points)
    model._active.validate()
    model._inactive.validate()


@settings(max_examples=25, deadline=None)
@given(point_lists)
def test_clusters_partition_active_cells(points):
    model = build_model(points)
    clusters = model.clusters()
    members = [cid for cluster in clusters.values() for cid in cluster]
    assert sorted(members) == sorted(model.tree.ids())
    assert len(members) == len(set(members)), "no cell may appear in two clusters"


@settings(max_examples=25, deadline=None)
@given(point_lists)
def test_every_cell_is_active_xor_inactive(points):
    model = build_model(points)
    active_ids = set(model.tree.ids())
    inactive_ids = {cell.cell_id for cell in model.reservoir.cells()}
    assert not (active_ids & inactive_ids)
    assert len(model._active) == len(active_ids)
    assert len(model._inactive) == len(inactive_ids)


@settings(max_examples=25, deadline=None)
@given(point_lists)
def test_deltas_match_distance_to_dependency(points):
    model = build_model(points)
    for cell in model.tree.cells():
        if cell.dependency is None or cell.dependency not in model.tree:
            assert cell.delta == math.inf
            continue
        parent = model.tree.get(cell.dependency)
        distance = math.dist(cell.seed, parent.seed)
        assert cell.delta == pytest.approx(distance, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(point_lists)
def test_dependent_distance_is_minimal_over_denser_cells(points):
    """δ must be the distance to the *nearest* higher-density cell (Eq. 7)."""
    model = build_model(points)
    cells = list(model.tree.cells())
    for cell in cells:
        rho = cell.key
        best = math.inf
        for other in cells:
            if other.cell_id == cell.cell_id:
                continue
            rho_other = other.key
            higher = rho_other > rho or (rho_other == rho and other.cell_id < cell.cell_id)
            if higher:
                best = min(best, math.dist(cell.seed, other.seed))
        if best == math.inf:
            assert cell.dependency is None or cell.dependency not in model.tree
        else:
            assert cell.delta == pytest.approx(best, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(point_lists, st.floats(min_value=0.2, max_value=3.0))
def test_number_of_clusters_monotone_in_tau(points, tau):
    """A larger τ can only merge clusters, never create more of them."""
    model = build_model(points, adaptive_tau=False, tau=1.0)
    small = model.tree.num_clusters(tau)
    large = model.tree.num_clusters(tau * 2.0)
    assert large <= small


#: One arrival: a new point after a short step, a duplicate of the previous
#: point, a burst (same timestamp as the previous point) or an idle gap
#: longer than the reservoir's deletion interval.  Points scatter around a
#: few centres, so cells absorb, activate and decay as well as appear.
arrivals = st.lists(
    st.tuples(
        st.sampled_from(["step", "step", "step", "duplicate", "burst", "gap"]),
        st.tuples(
            st.sampled_from([(0.0, 0.0), (0.0, 5.0), (5.0, 0.0), (9.0, 9.0)]),
            st.floats(min_value=-1.5, max_value=1.5),
            st.floats(min_value=-1.5, max_value=1.5),
        ),
    ),
    min_size=5,
    max_size=160,
)

#: How the arrivals are fed: runs of ``learn_one`` calls ("one") or
#: ``learn_many`` calls with a batch size (``None`` = the per-point engine).
calls = st.lists(
    st.tuples(st.integers(min_value=1, max_value=40), st.sampled_from(["one", None, 1, 7, 64])),
    min_size=1,
    max_size=12,
)


def assert_arena_accounting(model):
    model.tree.validate()
    model.reservoir.validate()
    arena = model._cells
    assert len(arena) == len(model.tree) + len(model.reservoir)
    live = [arena.slot_of(cell_id) for cell_id in arena.ids()]
    assert np.all(arena.status[live] == MEMBER), "a live cell belongs to no population"


@settings(max_examples=40, deadline=None)
@given(
    arrivals,
    calls,
    st.sampled_from([None, 12_000, 25_000]),
    st.sampled_from(["float64", "float32"]),
)
def test_arena_accounting_under_churn(arrivals, calls, memory_cap_bytes, dtype):
    """Creation, activation, deactivation, pruning and eviction keep the books."""
    model = EDMStream(
        radius=0.8,
        init_size=5,
        beta=0.01,
        stream_rate=100.0,
        memory_cap_bytes=memory_cap_bytes,
        dtype=dtype,
    )
    gap = 1.5 * model.reservoir.deletion_interval
    points, t, values = [], 0.0, None
    for kind, ((x, y), dx, dy) in arrivals:
        if kind == "gap":
            t += gap
        elif kind != "burst":
            t += 0.01
        if kind != "duplicate" or values is None:
            values = (x + dx, y + dy)
        points.append(StreamPoint(values=values, timestamp=t))

    start = 0
    while start < len(points):
        for size, mode in calls:
            chunk = points[start : start + size]
            if not chunk:
                break
            if mode == "one":
                for point in chunk:
                    model.learn_one(point.values, timestamp=point.timestamp)
                    assert_arena_accounting(model)
            else:
                model.learn_many(chunk, batch_size=mode)
                assert_arena_accounting(model)
            start += size
