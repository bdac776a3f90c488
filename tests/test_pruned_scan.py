"""Property test: the screened assignment scan against brute force.

``nearest_over_slots(..., within=r)`` screens large scans with one Gram
product — over a norm window above ``prune_threshold`` seeds, over all
seeds below it — and sends only undecided rows to the exact kernel, on the
seeds its bound keeps.  Its contract: wherever the brute-force nearest
seed lies within ``r`` the scan returns the same ``(distance, id)`` — same
kernel distance, smallest id on exact ties; with ``exact=False`` a
distance may be NaN instead, for a row decided within ``r`` — and
everywhere else it returns a distance beyond ``r``.  The streams below stress the bound's rounding slack:
coordinates far from the origin, duplicate seeds, seeds at exactly ``r`` on
a dyadic grid (where the kernel is exact), and float32 arenas.  The unit
tests at the end check which rows the Gram screen decides by itself and
which reach the exact kernel: near ties and rows on the radius must.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.cellstore as cellstore
from repro.core.cellstore import _merge_minima, nearest_over_slots
from repro.core.soa import CellArrays
from repro.distance.metrics import pairwise_euclidean

#: Dyadic grid step: coordinates up to 2**21 stay exact in float32.
STEP = 0.125


@st.composite
def scan_cases(draw):
    dim = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    offset = draw(st.sampled_from([0.0, 3.0, 1e3, 1e6]))
    radius = STEP * draw(st.integers(1, 24))
    spread = STEP * draw(st.integers(1, 64))
    n_seeds = draw(st.integers(2, 120))
    n_queries = draw(st.integers(1, 150))
    dyadic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    centre = offset + STEP * rng.integers(-8, 8, size=dim)
    seeds = centre + spread * rng.standard_normal((n_seeds, dim))
    queries = seeds[rng.integers(0, n_seeds, size=n_queries)]
    queries = queries + 0.5 * radius * rng.standard_normal((n_queries, dim))
    if dyadic:
        seeds = np.round(seeds / STEP) * STEP
        queries = np.round(queries / STEP) * STEP
        # Plant seeds at exactly distance ``radius`` from some queries.
        planted = rng.integers(0, n_queries, size=min(n_queries, 12))
        axes = rng.integers(0, dim, size=planted.size)
        signs = rng.choice([-1.0, 1.0], size=planted.size)
        extra = queries[planted].copy()
        extra[np.arange(planted.size), axes] += signs * radius
        seeds = np.vstack([seeds, extra])
    # Seeds at distance ``radius`` off the grid, so the kernel's rounding
    # decides whether they count as within reach.
    near = rng.integers(0, n_queries, size=min(n_queries, 24))
    directions = rng.standard_normal((near.size, dim))
    # Half of them radial, where the norm window is tight: |‖q‖ - ‖s‖| = r.
    directions[::2] = queries[near[::2]] + 1e-3
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    seeds = np.vstack([seeds, queries[near] + radius * directions])
    # Duplicate seeds: exact ties that must resolve to the smallest id.
    duplicates = seeds[rng.integers(0, seeds.shape[0], size=draw(st.integers(0, 6)))]
    seeds = np.vstack([seeds, duplicates])
    ids = rng.permutation(seeds.shape[0]).astype(np.int64) + 100
    return dtype, radius, seeds, ids, queries


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_pruned_scan_matches_brute_force_within_radius(case):
    dtype, radius, seeds, ids, queries = case
    arena = CellArrays(numeric=True, dtype=dtype)
    for cell_id, row in zip(ids.tolist(), seeds):
        arena.allocate(cell_id, tuple(row.tolist()))
    slots = np.asarray([arena.slot_of(cell_id) for cell_id in ids.tolist()])
    queries = queries.astype(dtype)

    exact, exact_id = _merge_minima(
        pairwise_euclidean(queries, arena.seeds[slots]), ids, None, None
    )
    covered = exact <= radius
    # Windowed (above prune_threshold) and over all seeds (below it, with
    # the work floor lifted).
    saved = cellstore._SCAN_SCREEN_MIN_WORK
    cellstore._SCAN_SCREEN_MIN_WORK = 0
    try:
        for threshold in (1, 10**9):
            best, best_id = nearest_over_slots(
                arena, slots, ids, queries, within=radius, prune_threshold=threshold
            )
            assert np.array_equal(best[covered], exact[covered])
            assert np.array_equal(best_id[covered], exact_id[covered])
            assert np.all(best[~covered] > radius)
            # The engine's form: a row the screen decides within reach
            # carries its id and NaN; every other row is as above.
            screened, screened_id = nearest_over_slots(
                arena, slots, ids, queries, within=radius, prune_threshold=threshold,
                exact=False,
            )
            decided = np.isnan(screened)
            assert np.all(covered[decided])
            assert np.array_equal(screened_id[covered], exact_id[covered])
            assert np.array_equal(screened[covered & ~decided], exact[covered & ~decided])
            assert np.all(screened[~covered] > radius)
    finally:
        cellstore._SCAN_SCREEN_MIN_WORK = saved


# --------------------------------------------------------------------- #
# the screen: which rows it decides, which reach the exact kernel
# --------------------------------------------------------------------- #
RADIUS = 1.5
#: Seeds along the x axis; ids 100, 101, ... in this order.
SEEDS = [(0.0, 0.0), (2.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]
QUERIES = {
    "clear": (0.1, 0.0),  # 0.1 from seed 100, the runner-up 1.9 away
    "far": (5.0, 5.0),  # nothing within reach
    "tie": (1.0, 0.0),  # exactly 1.0 from seeds 100 and 101
    "edge": (0.0, RADIUS * (1.0 + 2.0**-40)),  # on seed 100's boundary
    "edge_in": (0.0, RADIUS * (1.0 - 2.0**-40)),
}


@pytest.fixture(params=["windowed", "unwindowed"])
def scan_path(request, monkeypatch):
    """``prune_threshold`` for the path; below it the work floor is lifted."""
    import repro.core.cellstore as cellstore

    monkeypatch.setattr(cellstore, "_SCAN_SCREEN_MIN_WORK", 0)
    return 1 if request.param == "windowed" else 1000


@pytest.fixture
def kernel_rows(monkeypatch):
    """The query rows every exact-kernel call of the scan receives."""
    import repro.core.cellstore as cellstore

    seen = []

    def recording(queries, seeds):
        seen.extend(tuple(map(float, row)) for row in queries)
        return pairwise_euclidean(queries, seeds)

    monkeypatch.setattr(cellstore, "pairwise_euclidean", recording)
    return seen


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_screen_sends_near_ties_and_boundary_rows_to_the_exact_kernel(
    scan_path, kernel_rows, dtype
):
    arena = CellArrays(numeric=True, dtype=dtype)
    ids = np.arange(100, 100 + len(SEEDS), dtype=np.int64)
    for cell_id, seed in zip(ids.tolist(), SEEDS):
        arena.allocate(cell_id, seed)
    slots = np.asarray([arena.slot_of(cell_id) for cell_id in ids.tolist()])
    names = list(QUERIES)
    queries = np.asarray([QUERIES[name] for name in names], dtype=dtype)
    best, best_id = nearest_over_slots(
        arena, slots, ids, queries, within=RADIUS, prune_threshold=scan_path, exact=False
    )
    row = {name: i for i, name in enumerate(names)}
    sent = {tuple(map(float, queries[row[name]])) for name in ("tie", "edge", "edge_in")}
    assert set(kernel_rows) == sent
    # Decided rows: the nearest id without a distance, or nothing in reach.
    assert best_id[row["clear"]] == 100 and np.isnan(best[row["clear"]])
    assert best[row["far"]] > RADIUS
    # Rows the exact kernel saw: its distance and the smallest id on a tie.
    exact, exact_id = _merge_minima(
        pairwise_euclidean(queries, arena.seeds[slots]), ids, None, None
    )
    for name in ("tie", "edge_in"):
        assert (best[row[name]], best_id[row[name]]) == (exact[row[name]], exact_id[row[name]])
    assert best_id[row["tie"]] == 100
    covered = exact <= RADIUS
    assert best[row["edge"]] > RADIUS or (covered[row["edge"]] and best_id[row["edge"]] == 100)


def test_exact_scan_returns_the_kernel_distance_of_decided_rows(scan_path, kernel_rows):
    arena = CellArrays(numeric=True)
    ids = np.arange(100, 100 + len(SEEDS), dtype=np.int64)
    for cell_id, seed in zip(ids.tolist(), SEEDS):
        arena.allocate(cell_id, seed)
    slots = np.asarray([arena.slot_of(cell_id) for cell_id in ids.tolist()])
    queries = np.asarray(list(QUERIES.values()))
    best, best_id = nearest_over_slots(
        arena, slots, ids, queries, within=RADIUS, prune_threshold=scan_path
    )
    exact, exact_id = _merge_minima(
        pairwise_euclidean(queries, arena.seeds[slots]), ids, None, None
    )
    covered = exact <= RADIUS
    assert np.array_equal(best[covered], exact[covered])
    assert np.array_equal(best_id[covered], exact_id[covered])
    assert np.all(best[~covered] > RADIUS)
    # The row decided beyond reach never reached the kernel.
    assert tuple(QUERIES["far"]) not in set(kernel_rows)
