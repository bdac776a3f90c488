"""Property-based invariant tests for EDMStream.

These use hypothesis to generate small random streams and assert structural
invariants that must hold after any sequence of arrivals:

* the DP-Tree is a consistent, acyclic forest;
* every dependency points to a cell with (weakly) higher timely density;
* the vectorised cell-store caches stay coherent with the cell objects;
* the MSDSubTree extraction partitions the active cells;
* every cell lives in exactly one of {DP-Tree, outlier reservoir}.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import EDMStream


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
    now = model.now
    for cell in model.tree.cells():
        if cell.dependency is None or cell.dependency not in model.tree:
            continue
        parent = model.tree.get(cell.dependency)
        rho_child = cell.density_at(now, model.decay)
        rho_parent = parent.density_at(now, model.decay)
        assert (rho_parent > rho_child) or (
            rho_parent == pytest.approx(rho_child) and parent.cell_id < cell.cell_id
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
    now = model.now
    cells = list(model.tree.cells())
    for cell in cells:
        rho = cell.density_at(now, model.decay)
        best = math.inf
        for other in cells:
            if other.cell_id == cell.cell_id:
                continue
            rho_other = other.density_at(now, model.decay)
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
