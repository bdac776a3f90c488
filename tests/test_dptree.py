"""Tests for the DP-Tree (Section 2.2, Definition 2)."""

import math
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dptree import DPTree, dominates, lex_improves
from repro.core.filters import FilterStatistics
from repro.core.soa import CellArrays
from repro.distance import jaccard_distance


def make_cell(tree, seed, key):
    """A view of a new cell in the tree's arena, not yet added to the tree."""
    return tree.arrays.view(tree.arrays.create(seed, key=key))


def write_link(tree, cell_id, dep, delta):
    """Write a link straight into the arena columns, bypassing every check."""
    slot = tree.arrays.slot_of(cell_id)
    tree.arrays.dep[slot] = dep
    tree.arrays.delta[slot] = delta


def reference_clusters(tree: DPTree, tau: float) -> Dict[int, List[int]]:
    """MSDSubTree extraction by walking down from every root.

    The dict-of-children walk the DP-Tree used before extraction moved onto
    the arena columns, kept as the oracle: a cell starts its own cluster
    when its dependency is missing from the tree or its link is weak
    (δ > τ), otherwise it joins its parent's cluster.
    """
    links: Dict[int, Tuple[int, float]] = {
        cell.cell_id: (cell.dependency, cell.delta) for cell in tree.cells()
    }
    children: Dict[int, List[int]] = {}
    for cid, (parent, _) in links.items():
        if parent in links:
            children.setdefault(parent, []).append(cid)
    assignment: Dict[int, int] = {}
    members: Dict[int, List[int]] = {}
    for root in [cid for cid, (parent, _) in links.items() if parent not in links]:
        stack = [root]
        while stack:
            cid = stack.pop()
            parent, delta = links[cid]
            cluster_root = cid if parent not in links or delta > tau else assignment[parent]
            assignment[cid] = cluster_root
            members.setdefault(cluster_root, []).append(cid)
            stack.extend(children.get(cid, ()))
    return {root: sorted(ids) for root, ids in members.items()}


@pytest.fixture
def chain_tree():
    """A small tree:  root(10) <- a(5) <- b(3);  root <- c(4) with a weak link."""
    tree = DPTree()
    root = make_cell(tree, (0.0, 0.0), 10.0)
    a = make_cell(tree, (1.0, 0.0), 5.0)
    b = make_cell(tree, (1.5, 0.0), 3.0)
    c = make_cell(tree, (9.0, 0.0), 4.0)
    for cell in (root, a, b, c):
        tree.add(cell.cell_id)
    tree.set_dependency(a.cell_id, root.cell_id, 1.0)
    tree.set_dependency(b.cell_id, a.cell_id, 0.5)
    tree.set_dependency(c.cell_id, root.cell_id, 9.0)
    return tree, root, a, b, c


class TestStructure:
    def test_add_and_contains(self):
        tree = DPTree()
        cell = make_cell(tree, (0.0,), 1.0)
        tree.add(cell.cell_id)
        assert cell.cell_id in tree
        assert len(tree) == 1
        assert tree.get(cell.cell_id).seed == (0.0,)

    def test_duplicate_add_rejected(self):
        tree = DPTree()
        cell = make_cell(tree, (0.0,), 1.0)
        tree.add(cell.cell_id)
        with pytest.raises(KeyError):
            tree.add(cell.cell_id)

    def test_dangling_dependency_is_a_cluster_root(self):
        tree = DPTree()
        cell = make_cell(tree, (0.0,), 1.0)
        tree.add(cell.cell_id)
        write_link(tree, cell.cell_id, 424242, 1.0)  # no such cell
        assert tree.clusters(tau=10.0) == {cell.cell_id: [cell.cell_id]}
        tree.validate()

    def test_set_dependency_writes_the_columns(self, chain_tree):
        tree, root, a, b, c = chain_tree
        assert (a.dependency, a.delta) == (root.cell_id, 1.0)
        assert (b.dependency, b.delta) == (a.cell_id, 0.5)
        tree.set_dependency(b.cell_id, None, 3.0)
        assert (b.dependency, b.delta) == (None, math.inf)

    def test_set_dependency_moves_child_between_parents(self, chain_tree):
        tree, root, a, b, c = chain_tree
        tau = 1.2  # a's link (1.0) is strong, c's (9.0) weak
        assert tree.clusters(tau)[root.cell_id] == sorted([root.cell_id, a.cell_id, b.cell_id])
        tree.set_dependency(b.cell_id, c.cell_id, 1.1)
        assert b.dependency == c.cell_id
        clusters = tree.clusters(tau)
        assert clusters[root.cell_id] == sorted([root.cell_id, a.cell_id])
        assert clusters[c.cell_id] == sorted([c.cell_id, b.cell_id])

    def test_self_dependency_rejected(self, chain_tree):
        tree, root, *_ = chain_tree
        with pytest.raises(ValueError):
            tree.set_dependency(root.cell_id, root.cell_id, 0.0)

    def test_dependency_on_unknown_cell_rejected(self, chain_tree):
        tree, root, *_ = chain_tree
        with pytest.raises(KeyError):
            tree.set_dependency(root.cell_id, 999999, 1.0)

    def test_dependency_of_unknown_cell_rejected(self, chain_tree):
        tree, root, *_ = chain_tree
        with pytest.raises(KeyError):
            tree.set_dependency(999999, root.cell_id, 1.0)

    def test_remove_leaves_children_as_cluster_roots(self, chain_tree):
        tree, root, a, b, c = chain_tree
        assert tree.remove(a.cell_id) == a.cell_id
        assert a.cell_id not in tree
        # b still names a until the engine recomputes it; extraction cuts
        # the dangling link, so b heads its own cluster meanwhile.
        clusters = tree.clusters(tau=100.0)
        assert clusters == {root.cell_id: sorted([root.cell_id, c.cell_id]), b.cell_id: [b.cell_id]}
        tree.validate()

    def test_remove_unknown_cell_raises(self):
        tree = DPTree()
        with pytest.raises(KeyError):
            tree.remove(12345)

    def test_validate_passes_on_consistent_tree(self, chain_tree):
        tree, *_ = chain_tree
        tree.validate()

    def test_validate_rejects_self_dependency(self, chain_tree):
        tree, root, a, *_ = chain_tree
        write_link(tree, a.cell_id, a.cell_id, 0.0)
        with pytest.raises(AssertionError, match="depends on itself"):
            tree.validate()

    def test_validate_rejects_two_cycle(self, chain_tree):
        tree, root, a, b, c = chain_tree
        write_link(tree, a.cell_id, b.cell_id, 0.5)
        with pytest.raises(AssertionError, match="cycle"):
            tree.validate()
        # Extraction over the corrupted links terminates rather than hanging.
        tree.clusters(tau=100.0)


class TestClusterExtraction:
    def test_single_cluster_when_all_links_strong(self, chain_tree):
        tree, root, a, b, c = chain_tree
        clusters = tree.clusters(tau=100.0)
        assert len(clusters) == 1
        assert set(clusters[root.cell_id]) == {root.cell_id, a.cell_id, b.cell_id, c.cell_id}

    def test_weak_link_splits_cluster(self, chain_tree):
        tree, root, a, b, c = chain_tree
        clusters = tree.clusters(tau=5.0)  # c's delta (9.0) is weak
        assert len(clusters) == 2
        assert set(clusters[root.cell_id]) == {root.cell_id, a.cell_id, b.cell_id}
        assert set(clusters[c.cell_id]) == {c.cell_id}

    def test_every_cell_assigned_exactly_once(self, chain_tree):
        tree, *_ = chain_tree
        clusters = tree.clusters(tau=1.0)
        members = [cid for cluster in clusters.values() for cid in cluster]
        assert sorted(members) == sorted(tree.ids())

    def test_num_clusters_matches_weak_link_count_plus_roots(self, chain_tree):
        tree, root, a, b, c = chain_tree
        # tau below every delta: every cell is its own cluster.
        assert tree.num_clusters(0.1) == 4
        assert tree.num_clusters(0.75) == 3
        assert tree.num_clusters(2.0) == 2
        assert tree.num_clusters(10.0) == 1

    def test_cluster_assignment_consistent_with_clusters(self, chain_tree):
        tree, *_ = chain_tree
        clusters = tree.clusters(tau=5.0)
        assignment = tree.cluster_assignment(tau=5.0)
        for root_id, members in clusters.items():
            for member in members:
                assert assignment[member] == root_id

    def test_long_chain_is_one_cluster(self):
        """Pointer jumping reaches the root of a chain 40 links deep."""
        tree = DPTree()
        cells = [make_cell(tree, (float(i),), 1.0) for i in range(41)]
        for cell in reversed(cells):
            tree.add(cell.cell_id)
        for child, parent in zip(cells[1:], cells):
            tree.set_dependency(child.cell_id, parent.cell_id, 1.0)
        ids = [cell.cell_id for cell in cells]
        assert tree.clusters(tau=1.0) == {ids[0]: ids}
        tree.validate()

    def test_empty_tree(self):
        tree = DPTree()
        assert tree.clusters(1.0) == {}
        assert tree.cluster_assignment(1.0) == {}
        assert tree.num_clusters(1.0) == 0
        assert tree.link_deltas().tolist() == []
        tree.validate()

    def test_link_deltas_exclude_roots(self, chain_tree):
        tree, *_ = chain_tree
        assert sorted(tree.link_deltas().tolist()) == [0.5, 1.0, 9.0]

    def test_cluster_root_is_the_msdsubtree_root(self, chain_tree):
        tree, root, a, b, c = chain_tree
        clusters = tree.clusters(tau=5.0)
        # Definition 2: the root of an MSDSubTree is that cluster's centre.
        assert root.cell_id in clusters
        assert c.cell_id in clusters


class TestDependencyRules:
    @pytest.mark.parametrize(
        "rho_a, id_a, rho_b, id_b, expected",
        [
            (2.0, 9, 1.0, 3, True),  # higher density
            (1.0, 3, 2.0, 9, False),  # lower density
            (1.0, 3, 1.0, 9, True),  # equal density, smaller id
            (1.0, 9, 1.0, 3, False),  # equal density, larger id
        ],
    )
    def test_dominates(self, rho_a, id_a, rho_b, id_b, expected):
        assert bool(dominates(rho_a, id_a, rho_b, id_b)) is expected
        mask = dominates(rho_a, id_a, np.array([rho_b, rho_b]), np.array([id_b, id_b]))
        assert mask.tolist() == [expected, expected]

    @pytest.mark.parametrize(
        "distance, parent, delta, dep, expected",
        [
            (1.0, 9, 2.0, 3, True),  # strictly closer
            (3.0, 1, 2.0, 3, False),  # farther
            (2.0, 1, 2.0, 3, True),  # as close, smaller parent id
            (2.0, 9, 2.0, 3, False),  # as close, larger parent id
            (2.0, 9, 2.0, -1, True),  # no dependency loses every tie
        ],
    )
    def test_lex_improves(self, distance, parent, delta, dep, expected):
        assert bool(lex_improves(distance, parent, delta, dep)) is expected
        mask = lex_improves(np.array([distance]), parent, np.array([delta]), np.array([dep]))
        assert mask.tolist() == [expected]


#: Link choices for the random forests: a parent of lower rank (index into
#: the cells ranked so far), the cell ranked just before (long chains), no
#: parent, or an id that is not in the tree.
_parent = st.one_of(
    st.tuples(st.just("rank"), st.integers(min_value=0, max_value=1 << 16)),
    st.just(("chain", -1)),
    st.just(("none", -1)),
    st.tuples(st.just("dangling"), st.integers(min_value=1, max_value=3)),
)
_delta = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, math.inf]),
    st.floats(min_value=0.0, max_value=4.0),
)
_forest = st.tuples(
    st.permutations(range(24)),
    st.lists(st.tuples(_parent, _delta), min_size=0, max_size=24),
    st.sets(st.integers(min_value=0, max_value=23), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(_forest, st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]))
def test_extraction_matches_the_reference_walk(forest, tau):
    """Pointer jumping over the columns equals the walk on random forests.

    Cells are ranked by a random permutation and each links to a cell of
    lower rank, so the forest is acyclic while parents carry smaller or
    larger ids alike; some cells then leave the tree, leaving dangling
    links and a swap-compacted array order.
    """
    ranks, links, removed = forest
    tree = DPTree()
    cells = [make_cell(tree, (float(i),), 1.0) for i in range(len(links))]
    for cell in cells:
        tree.add(cell.cell_id)
    ranked = sorted(range(len(cells)), key=lambda i: ranks[i])
    for position, index in enumerate(ranked):
        (kind, value), delta = links[index]
        if kind in ("rank", "chain") and position > 0:
            dep = cells[ranked[value % position]].cell_id
        elif kind == "dangling":
            dep = cells[-1].cell_id + value
        else:
            dep = -1
        write_link(tree, cells[index].cell_id, dep, delta)
    for index in sorted(removed):
        if index < len(cells):
            tree.remove(cells[index].cell_id)

    tree.validate()
    expected = reference_clusters(tree, tau)
    clusters = tree.clusters(tau)
    assert clusters == expected
    assert list(clusters) == sorted(expected)
    assert tree.cluster_assignment(tau) == {
        cid: root for root, members in expected.items() for cid in members
    }
    assert tree.num_clusters(tau) == len(expected)
    assert tree.cluster_roots(tau).tolist() == [
        root for cid in tree.ids() for root, members in expected.items() if cid in members
    ]


# --------------------------------------------------------------------- #
# DPTree.relink against a brute-force Eq. 7 oracle
# --------------------------------------------------------------------- #
@st.composite
def _population(draw):
    """A DP-Tree of up to 12 cells with tied seeds and tied densities.

    Seeds come from a tiny lattice (numeric) or a five-letter alphabet
    (Jaccard), so duplicate seeds and exact distance ties are routine;
    densities come from three values, so density ties are too.  Cells join
    the tree in a random order, so array order differs from id order.
    """
    kind = draw(st.sampled_from(["float64", "float32", "jaccard"]))
    n = draw(st.integers(min_value=1, max_value=12))
    if kind == "jaccard":
        letters = st.sets(st.sampled_from("abcde"), min_size=1)
        seeds = [frozenset(draw(letters)) for _ in range(n)]
        tree = DPTree(numeric=False, metric=jaccard_distance)
    else:
        dim = draw(st.integers(min_value=1, max_value=3))
        coordinate = st.integers(min_value=0, max_value=3).map(float)
        seeds = [tuple(draw(st.lists(coordinate, min_size=dim, max_size=dim))) for _ in range(n)]
        tree = DPTree(arrays=CellArrays(numeric=True, dtype=np.dtype(kind).type))
    ids = [tree.arrays.create(seed) for seed in seeds]
    for index in draw(st.permutations(range(n))):
        tree.add(ids[index])
    densities = np.asarray(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n)))
    write_keys(tree, densities)
    listed = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)))
    return tree, densities, np.asarray(listed, dtype=np.int64)


def write_keys(tree, densities):
    """Store ``densities`` (array order) as the cells' keys, which order them alike."""
    tree.arrays.key[tree.slots()] = densities


def oracle_links(tree, densities):
    """Eq. 7 link of every cell by brute force, in array order.

    The nearest dominating cell, the smallest id among equidistant ones,
    or ``(-1, inf)`` when nothing dominates; each distance row comes from
    a one-query :meth:`CellStore.distances_to` call.
    """
    ids = tree.ids_array().tolist()
    links = []
    for i, cell_id in enumerate(ids):
        row = tree.distances_to(tree.get(cell_id).seed)
        best = (math.inf, -1)
        for j, other in enumerate(ids):
            if dominates(densities[j], other, densities[i], cell_id):
                best = min(best, (float(row[j]), other))
        links.append((best[1], best[0]))
    return links


def links_of(tree):
    """The ``(dep, delta)`` column pair of every cell, in array order."""
    slots = tree.slots()
    return list(zip(tree.arrays.dep[slots].tolist(), tree.arrays.delta[slots].tolist()))


def write_links(tree, links):
    """Write ``(dep, delta)`` pairs into the arena columns, in array order."""
    slots = tree.slots()
    tree.arrays.dep[slots] = [dep for dep, _ in links]
    tree.arrays.delta[slots] = [delta for _, delta in links]


@settings(max_examples=300, deadline=None)
@given(_population(), st.booleans(), st.data())
def test_relink_gives_the_listed_cells_their_oracle_link(population, repoint, data):
    """Listed cells get Eq. 7 from stale links; every changed pair is counted.

    A stale link is none, the right parent at a wrong distance (a change
    of δ alone) or already right.
    """
    tree, densities, listed = population
    stale = [
        data.draw(st.sampled_from([(-1, math.inf), (dep, delta + 0.5), (dep, delta)]))
        if dep != -1
        else (-1, math.inf)
        for dep, delta in oracle_links(tree, densities)
    ]
    write_links(tree, stale)
    stats = FilterStatistics()
    tree.relink(listed, stats, repoint=repoint)
    links, expected = links_of(tree), oracle_links(tree, densities)
    for position in listed.tolist():
        assert links[position] == expected[position]
    if not repoint:
        unlisted = sorted(set(range(len(tree))) - set(listed.tolist()))
        assert [links[i] for i in unlisted] == [stale[i] for i in unlisted]
    assert stats.dependency_changes == sum(old != new for old, new in zip(stale, links))


@settings(max_examples=300, deadline=None)
@given(_population(), st.data())
def test_relink_with_repoint_restores_every_oracle_link(population, data):
    """After the listed cells grow denser, one relink puts every cell back on Eq. 7."""
    tree, densities, listed = population
    write_links(tree, oracle_links(tree, densities))
    growth = data.draw(
        st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=listed.size, max_size=listed.size)
    )
    densities = densities.copy()
    densities[listed] += growth
    write_keys(tree, densities)
    tree.relink(listed, FilterStatistics())
    assert links_of(tree) == oracle_links(tree, densities)
    tree.validate()


@settings(max_examples=300, deadline=None)
@given(_population())
def test_one_cell_refresh_measures_only_its_dominators(population):
    tree, densities, listed = population
    position = int(listed[0])
    ids = tree.ids_array()
    stats = FilterStatistics()
    tree.relink(np.array([position]), stats, repoint=False)
    dominators = dominates(densities, ids, densities[position], ids[position])
    assert stats.distance_computations == int(np.count_nonzero(dominators))


def test_relink_of_an_empty_selection_changes_nothing():
    tree = DPTree()
    for x in (0.0, 1.0):
        tree.add(tree.arrays.create((x,)))
    stats = FilterStatistics()
    tree.relink(np.empty(0, dtype=np.int64), stats)
    assert links_of(tree) == [(-1, math.inf)] * 2
    assert stats.as_dict() == FilterStatistics().as_dict()


@settings(max_examples=300, deadline=None)
@given(_population(), st.data())
def test_one_row_refresh_over_known_dominators_equals_the_masked_path(population, data):
    """``relink(..., dominators=...)`` reads one row's argmin and its exact ties;
    the masked path builds the dominance mask and a masked block.  The
    lattice seeds make exact distance ties routine, and the densest cell
    has no dominator at all."""
    tree, densities, listed = population
    position = data.draw(st.sampled_from(listed.tolist()))
    ids = tree.ids_array()
    write_links(
        tree,
        [
            data.draw(st.sampled_from([(-1, math.inf), (dep, delta + 0.5), (dep, delta)]))
            if dep != -1
            else (-1, math.inf)
            for dep, delta in oracle_links(tree, densities)
        ],
    )
    stale = links_of(tree)
    dominators = dominates(densities, ids, densities[position], ids[position]).nonzero()[0]
    outcomes = []
    for known in (None, dominators):
        write_links(tree, stale)
        stats = FilterStatistics()
        tree.relink(np.array([position]), stats, repoint=False, dominators=known)
        outcomes.append((links_of(tree), stats.as_dict()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0][position] == oracle_links(tree, densities)[position]


def test_one_row_refresh_with_no_dominator_cuts_the_link():
    tree = DPTree()
    a, b = (tree.arrays.create((x,)) for x in (0.0, 1.0))
    tree.add_many([a, b])
    write_link(tree, b, a, 1.0)
    stats = FilterStatistics()
    position = tree.position_of(b)
    tree.relink(np.array([position]), stats, repoint=False, dominators=np.empty(0, np.int64))
    assert links_of(tree)[position] == (-1, math.inf)
    assert (stats.dependency_changes, stats.distance_computations) == (1, 0)
