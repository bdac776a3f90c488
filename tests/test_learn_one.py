"""Per-point assignment (``EDMStream.learn_one``) against a brute-force oracle.

Before every call the oracle measures the point's distance to every seed of
both populations, in cell-id order rather than the model's scan order, and
names the cell the point must land in: the nearest seed within ``r``, with
the smallest id winning exact ties whichever population holds it, or a new
cell when no seed lies within ``r``.  After every call the DP-Tree and the
arena must validate.  The streams are built so that exact ties between an
active and an inactive seed occur, won by either population.
"""

from collections import Counter

import numpy as np
import pytest

from repro import EDMStream
from repro.distance.metrics import pairwise_euclidean
from repro.streams import SDSGenerator
from repro.streams.news import NewsStreamGenerator
from repro.streams.point import StreamPoint

DTYPES = ("float64", "float32")


def oracle(model, values):
    """``(expected id or None for a new cell, ids of the tied nearest seeds)``."""
    arena = model._cells
    active = set(model._active.ids())
    ids = sorted(active | set(model._inactive.ids()))
    if not ids:
        return None, []
    slots = [arena.slot_of(cell_id) for cell_id in ids]
    if model._numeric:
        query = np.asarray(values, dtype=arena.seed_dtype).reshape(1, -1)
        distances = pairwise_euclidean(query, arena.seeds[slots])[0]
    else:
        distances = np.asarray([model._metric(values, arena.seed_of(s)) for s in slots])
    nearest = distances.min()
    if float(nearest) > model.config.radius:
        return None, []
    tied = [cell_id for cell_id, d in zip(ids, distances) if d == nearest]
    return tied[0], tied


def replay(model, points):
    """Feed ``points`` one by one, checking each call; returns tie counts."""
    ties = Counter()
    for point in points:
        values = tuple(point.values) if model._numeric else point.values
        active = set(model._active.ids())
        expected, tied = oracle(model, values)
        existing = set(model._cells.ids())
        cell_id = model.learn_one(values, timestamp=point.timestamp, label=point.label)
        if expected is None:
            assert cell_id not in existing, f"point {values} within r of no seed was absorbed"
            if cell_id in model._cells:
                assert model._cells.seed_of(model._cells.slot_of(cell_id)) == values
        else:
            assert cell_id == expected, f"point {values}: got cell {cell_id}, tied {tied}"
        model.tree.validate()
        model._cells.validate()
        if len(tied) > 1:
            ties["tied"] += 1
            tied_active = [c for c in tied if c in active]
            if tied_active and len(tied_active) < len(tied):
                ties["inactive wins" if expected not in active else "active wins"] += 1
    return ties


def lattice_stream(n=2500, seed=3, rate=1000.0):
    """Points on the half-integer lattice of ``[0, 5]²``, sites weighted unevenly.

    Every site is visited once, in random order, then sites are drawn by
    uneven weights.  Integer sites become seeds; a point halfway between two
    sites lies exactly 0.5 from both, and a cell centre exactly ``sqrt(0.5)``
    from four.  The weights leave some sites active and some inactive,
    independently of their ids, so these ties span the two populations and
    either one can hold the smaller id.
    """
    rng = np.random.default_rng(seed)
    sites = [(float(x), float(y)) for x in range(6) for y in range(6)]
    weights = rng.exponential(size=len(sites)) ** 3
    weights /= weights.sum()
    visits = list(rng.permutation(len(sites)))
    points = []
    for i in range(n):
        site = visits[i] if i < len(visits) else rng.choice(len(sites), p=weights)
        x, y = sites[site]
        if i >= n // 5:
            x += rng.choice((0.0, 0.5, -0.5))
            y += rng.choice((0.0, 0.5, -0.5))
        points.append(StreamPoint(values=(x, y), timestamp=i / rate))
    return points


@pytest.mark.parametrize("dtype", DTYPES)
def test_lattice_ties_across_populations(dtype):
    model = EDMStream(radius=0.75, init_size=200, beta=0.02, stream_rate=1000.0, dtype=dtype)
    ties = replay(model, lattice_stream())
    assert ties["active wins"] > 0 and ties["inactive wins"] > 0, ties


@pytest.mark.parametrize("dtype", DTYPES)
def test_duplicate_seeds_across_populations(dtype):
    model = EDMStream(radius=0.5, init_size=100, beta=0.02, stream_rate=1000.0, dtype=dtype)
    replay(model, lattice_stream(n=300))
    now = model.now
    # Twin seeds: the older twin inactive and the younger active at (10, 10),
    # the other way round at (20, 20).
    older_inactive = model._create_cell((10.0, 10.0), now)
    model._activate_cell(model._create_cell((10.0, 10.0), now))
    older_active = model._create_cell((20.0, 20.0), now)
    model._activate_cell(older_active)
    model._create_cell((20.0, 20.0), now)
    twins = [(10.0, 10.0), (10.2, 10.1), (20.0, 20.0), (19.9, 20.3)]
    points = [
        StreamPoint(values=values, timestamp=now + 0.001 * (i + 1))
        for i, values in enumerate(twins)
    ]
    ties = replay(model, points)
    assert ties["inactive wins"] >= 2 and ties["active wins"] >= 2, ties
    assert model.learn_one((10.0, 10.0), timestamp=now + 1.0) == older_inactive
    assert model.learn_one((20.0, 20.0), timestamp=now + 1.0) == older_active


@pytest.mark.parametrize("dtype", DTYPES)
def test_sds_stream(dtype):
    stream = SDSGenerator(n_points=2500, rate=1000.0, seed=11).generate()
    model = EDMStream(radius=0.3, beta=0.0021, stream_rate=1000.0, dtype=dtype)
    replay(model, stream)
    assert model.n_active_cells > 0 and model.n_inactive_cells > 0


def test_jaccard_stream():
    stream = NewsStreamGenerator(n_points=900, rate=100.0).generate()
    model = EDMStream(radius=0.4, metric="jaccard", init_size=100, beta=0.01, stream_rate=100.0)
    ties = replay(model, stream)
    assert ties["tied"] > 0


def test_memory_capped_model():
    """Evictions change the inactive membership between calls."""
    stream = SDSGenerator(n_points=3000, rate=1000.0, seed=7).generate()
    model = EDMStream(radius=0.3, beta=0.0021, stream_rate=1000.0, memory_cap_bytes=40_000)
    replay(model, stream)
    assert model.bounded_store.tier.evictions > 0
