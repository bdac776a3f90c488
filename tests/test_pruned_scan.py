"""Property test: the pruned assignment scan against brute force.

Above ``prune_threshold`` seeds, ``nearest_over_slots(..., within=r)`` skips
seeds by the norm window and the Gram-matrix bound before running the exact
kernel.  Its contract: wherever the brute-force nearest seed lies within
``r`` the pruned scan returns the same ``(distance, id)`` — same kernel
distance, smallest id on exact ties — and everywhere else it returns a
distance beyond ``r``.  The streams below stress the bound's rounding slack:
coordinates far from the origin, duplicate seeds, seeds at exactly ``r`` on
a dyadic grid (where the kernel is exact), and float32 arenas.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

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

    best, best_id = nearest_over_slots(
        arena, slots, ids, queries, within=radius, prune_threshold=1
    )
    exact, exact_id = _merge_minima(
        pairwise_euclidean(queries, arena.seeds[slots]), ids, None, None
    )
    covered = exact <= radius
    assert np.array_equal(best[covered], exact[covered])
    assert np.array_equal(best_id[covered], exact_id[covered])
    assert np.all(best[~covered] > radius)
