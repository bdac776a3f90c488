"""``learn_one``'s Theorem 1 by the DP-Tree's density order.

With the density filter on, the per-point dependency update finds the cells
an absorber newly dominates from a band of the DP-Tree's time-invariant key
order (:meth:`DPTree.theorem_one <repro.core.dptree.DPTree.theorem_one>`)
instead of a full density vector and dominance mask.  The tests below hold
it to the full mask:

* on hand-built populations with knife-edge densities, zero and subnormal
  densities and epoch-scale times, its answer equals the mask's, also after
  the order was kept up to date through ``add``/``remove``/``write_density``;
* on random streams (duplicates, bursts, idle gaps past underflow, λ ≠ 1,
  ``float32``, a memory cap, ``learn_one`` interleaved with ``learn_many``)
  every active cell's seed-keyed ``(dep, δ, density)`` equals that of a twin
  with both filters off, and the filter counters equal a brute-force
  Theorem 1/2 recount from full ``densities_at`` vectors, call by call;
* idle gaps long enough to underflow every stored density do not break it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EDMStream
from repro.core.decay import DecayModel
from repro.core.dptree import DPTree, dominates
from repro.core.soa import CellArrays
from repro.distance.metrics import pairwise_euclidean
from repro.streams import SDSGenerator
from repro.streams.point import StreamPoint

# --------------------------------------------------------------------------- #
# theorem_one against the full mask, on hand-built populations
# --------------------------------------------------------------------------- #

#: How a cell's density relates to the absorber's: anywhere, exactly at
#: ``rho_before`` or ``rho_after`` at ``now``, one decayed step from them
#: (within an ulp or so of the end after numpy's rounding), underflowed to
#: 0, or subnormal.
_KINDS = ["any", "at_before", "at_after", "near_before", "near_after", "zero", "tiny"]
_NEAR = ["near_before", "near_after"]


@st.composite
def _population(draw):
    lam = draw(st.sampled_from([1.0, 0.5, 1000.0]))
    origin = draw(st.sampled_from([0.0, 1.7e9]))
    span = draw(st.sampled_from([0.0, 0.25, 40.0, 1e6]))
    now = origin + span
    rho_before = draw(
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 2.5]),
            st.floats(min_value=0.0, max_value=60.0),
        )
    )
    cells = []
    kinds = st.one_of(st.sampled_from(_KINDS), st.sampled_from(_NEAR))
    for kind in draw(st.lists(kinds, min_size=0, max_size=30)):
        elapsed = draw(st.floats(min_value=0.0, max_value=span)) if span else 0.0
        cells.append((kind, elapsed, draw(st.floats(min_value=0.0, max_value=80.0))))
    return lam, origin, now, rho_before, cells


def _build(population):
    """A DP-Tree over ``population`` plus an absorber that just went to ``rho_before + 1``."""
    lam, origin, now, rho_before, cells = population
    decay = DecayModel(lam=lam)
    rho_after = rho_before + 1.0
    arena = CellArrays()
    tree = DPTree(numeric=True, arrays=arena)
    for i, (kind, elapsed, value) in enumerate(cells):
        target = {"at_before": rho_before, "at_after": rho_after}.get(kind, value)
        if kind in ("near_before", "near_after"):
            # Python's ** and numpy's power round differently, so the
            # vector value lands on or next to the end.
            end = rho_before if kind == "near_before" else rho_after
            factor = decay.rate**elapsed
            density = end / factor if factor > 1e-100 else end
        elif kind in ("at_before", "at_after"):
            density, elapsed = target, 0.0
        elif kind == "zero":
            density = 0.0
        elif kind == "tiny":
            density = 1e-310
        else:
            density = value
        time = now - elapsed
        tree.add(arena.create((float(i),), density=density, last_update=time, created_at=time))
    absorber = arena.create((-1.0,), density=rho_after, last_update=now, created_at=now)
    tree.add(absorber)
    return tree, decay, origin, now, rho_before, rho_after, absorber


def _mask_answer(tree, decay, now, rho_before, rho_after, absorber):
    """What a full density vector and dominance mask decide.

    The absorber's dominators, which a stale own link is refreshed over,
    come from the mask ``relink`` builds for one row; ``None`` while the
    link holds.
    """
    densities = tree.densities_at(now, decay)
    ids = tree.ids_array()
    dominated = dominates(rho_after, absorber, densities, ids)
    kept = (dominated & (densities >= rho_before)).nonzero()[0]
    arena = tree.arrays
    dependency = int(arena.dep[arena.slot_of(absorber)])
    stale = dependency not in tree or bool(dominated[tree.position_of(dependency)])
    dominators = None
    if stale:
        higher = dominates(densities, ids, densities[tree.position_of(absorber)], absorber)
        dominators = higher.nonzero()[0].tolist()
    return kept.tolist(), dominators


def _check(tree, decay, origin, now, rho_before, rho_after, absorber):
    dependency = int(tree.arrays.dep[tree.arrays.slot_of(absorber)])
    positions, dominators = tree.theorem_one(
        absorber, dependency, now, rho_before, rho_after, decay, origin
    )
    if dominators is not None:
        assert dominators.dtype == np.int64
        dominators = dominators.tolist()
    assert (positions.tolist(), dominators) == _mask_answer(
        tree, decay, now, rho_before, rho_after, absorber
    )
    tree.validate()


@settings(max_examples=150, deadline=None)
@given(_population(), st.data())
def test_theorem_one_equals_the_full_mask(population, data):
    tree, decay, origin, now, rho_before, rho_after, absorber = _build(population)
    others = [cell_id for cell_id in tree.ids() if cell_id != absorber]
    dependency = data.draw(st.sampled_from(others + [-1, -2]))
    tree.arrays.dep[tree.arrays.slot_of(absorber)] = dependency
    _check(tree, decay, origin, now, rho_before, rho_after, absorber)


@settings(max_examples=60, deadline=None)
@given(_population(), st.data())
def test_the_order_follows_membership_and_density_writes(population, data):
    """Once built, the order is kept by add/remove/write_density, not rebuilt."""
    tree, decay, origin, now, rho_before, rho_after, absorber = _build(population)
    arena = tree.arrays
    tree.theorem_one(absorber, -1, now, rho_before, rho_after, decay, origin)
    others = [cell_id for cell_id in tree.ids() if cell_id != absorber]
    for cell_id in data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []:
        if data.draw(st.booleans()):
            tree.remove(cell_id)
        else:
            slot = arena.slot_of(cell_id)
            value = data.draw(st.sampled_from([0.0, rho_before, rho_after, 3.0]))
            tree.write_density(cell_id, slot, value, now)
    tree.add(arena.create((-2.0,), density=rho_before, last_update=now, created_at=now))
    tree.validate()
    _check(tree, decay, origin, now, rho_before, rho_after, absorber)


def test_validate_catches_a_density_written_behind_the_order():
    tree, decay, origin, now, rho_before, rho_after, absorber = _build(
        (1.0, 0.0, 10.0, 2.0, [("any", 5.0, 4.0), ("any", 0.0, 9.0)])
    )
    tree.theorem_one(absorber, -1, now, rho_before, rho_after, decay, origin)
    tree.validate()
    cell_id = tree.ids()[0]
    tree.arrays.density[tree.arrays.slot_of(cell_id)] = 7.5  # not through write_density
    with pytest.raises(AssertionError, match="density key"):
        tree.validate()


def test_a_dropped_order_is_rebuilt_from_the_arena():
    tree, decay, origin, now, rho_before, rho_after, absorber = _build(
        (1.0, 0.0, 10.0, 2.0, [("any", 5.0, 4.0), ("near_after", 3.0, 0.0), ("zero", 1.0, 0.0)])
    )
    tree.theorem_one(absorber, -1, now, rho_before, rho_after, decay, origin)
    tree.drop_density_order()
    for cell_id in tree.ids():
        tree.arrays.density[tree.arrays.slot_of(cell_id)] *= 1.5  # a bulk writer
    tree.arrays.density[tree.arrays.slot_of(absorber)] = rho_after
    _check(tree, decay, origin, now, rho_before, rho_after, absorber)


# --------------------------------------------------------------------------- #
# whole streams: the filtered model against an unfiltered twin
# --------------------------------------------------------------------------- #


def seed_keyed_state(model):
    """Every active cell as ``{seed: (dependency's seed, δ, stored density)}``."""
    arena = model._cells
    seed_of = {
        cell_id: arena.seed_of(slot)
        for cell_id, slot in zip(model.tree.ids(), model.tree.slots().tolist())
    }
    return {
        seed_of[cell_id]: (
            seed_of.get(int(arena.dep[slot])),
            float(arena.delta[slot]),
            float(arena.density[slot]),
        )
        for cell_id, slot in zip(model.tree.ids(), model.tree.slots().tolist())
    }


def recount(model, values, timestamp):
    """Brute-force Theorem 1/2 verdicts for one ``learn_one`` call, from full vectors.

    Returns a function of the absorbing cell's id giving the three counter
    increments the call must make: nonzero only when an active cell of an
    initialised model absorbs the point.
    """
    zero = dict.fromkeys(COUNTERS, 0)
    active = model._active
    if not model.initialized or len(active) == 0:
        return lambda absorber: zero
    now = max(model.now, timestamp) if model.n_points else timestamp
    arena = model._cells
    ids = active.ids_array().copy()
    densities = active.densities_at(now, model.decay)
    deltas = active.deltas()
    query = np.asarray(values, dtype=arena.seed_dtype).reshape(1, -1)
    distances = pairwise_euclidean(query, active.seed_view())[0]
    slots = active.slots().tolist()
    rho = {cell_id: arena.density_at(slot, now, model.decay) for cell_id, slot in zip(ids, slots)}
    density_on = model.config.enable_density_filter
    triangle_on = model.config.enable_triangle_filter

    def counts(absorber):
        if absorber not in rho:
            return zero
        position = int(np.flatnonzero(ids == absorber)[0])
        rho_before = rho[absorber]
        others = ids != absorber
        newly = dominates(rho_before + 1.0, absorber, densities, ids) & (densities >= rho_before)
        examined = others & newly if density_on else others
        far = np.abs(distances - distances[position]) > deltas
        return {
            "candidates": int(np.count_nonzero(others)),
            "density_filtered": int(np.count_nonzero(others & ~examined)),
            "triangle_filtered": int(np.count_nonzero(examined & far)) if triangle_on else 0,
        }

    return counts


COUNTERS = ("candidates", "density_filtered", "triangle_filtered")


def counters(model):
    stats = model.filter_stats.as_dict()
    return {key: stats[key] for key in COUNTERS}


def counter_increments(model, before):
    after = counters(model)
    return {key: after[key] - before[key] for key in COUNTERS}


#: One arrival: a step, a duplicate of the previous point (exact density
#: ties), a burst (no time passes) or an idle gap after which every stored
#: density has underflowed to 0.
arrivals = st.lists(
    st.tuples(
        st.sampled_from(["step", "step", "step", "duplicate", "burst", "gap"]),
        st.sampled_from([(0.0, 0.0), (0.0, 2.0), (2.0, 0.0)]),
        st.floats(min_value=-0.8, max_value=0.8),
        st.floats(min_value=-0.8, max_value=0.8),
    ),
    min_size=10,
    max_size=150,
)

#: Runs of ``learn_one`` calls (``"one"``) or ``learn_many`` batches of a size.
calls = st.lists(
    st.tuples(st.integers(min_value=1, max_value=40), st.sampled_from(["one", "one", 1, 5, 64])),
    min_size=1,
    max_size=10,
)


@settings(max_examples=50, deadline=None)
@given(
    arrivals,
    calls,
    st.sampled_from([(True, True), (True, True), (True, False), (False, True)]),
    st.sampled_from([1.0, 0.5, 1000.0]),
    st.sampled_from(["float64", "float32"]),
    st.sampled_from([None, 12_000]),
    st.sampled_from([0.0, 1.7e9]),
)
def test_filtered_stream_matches_its_unfiltered_twin_and_the_recount(
    arrivals, calls, filters, lam, dtype, memory_cap_bytes, origin
):
    config = dict(
        radius=0.5,
        init_size=5,
        beta=0.01,
        stream_rate=100.0,
        decay_lambda=lam,
        dtype=dtype,
        memory_cap_bytes=memory_cap_bytes,
    )
    density, triangle = filters
    model = EDMStream(enable_density_filter=density, enable_triangle_filter=triangle, **config)
    twin = EDMStream(enable_density_filter=False, enable_triangle_filter=False, **config)
    points, t, values = [], origin, None
    for kind, (cx, cy), dx, dy in arrivals:
        t += {"step": 0.01, "duplicate": 0.01, "burst": 0.0, "gap": 1e6}[kind]
        if kind != "duplicate" or values is None:
            values = (cx + dx, cy + dy)
        points.append(StreamPoint(values=values, timestamp=t))

    start = 0
    while start < len(points):
        for size, mode in calls:
            chunk = points[start : start + size]
            if not chunk:
                break
            if mode == "one":
                for point in chunk:
                    expected = recount(model, point.values, point.timestamp)
                    before = counters(model)
                    absorber = model.learn_one(point.values, timestamp=point.timestamp)
                    twin.learn_one(point.values, timestamp=point.timestamp)
                    assert counter_increments(model, before) == expected(absorber)
                    model.tree.validate()
            else:
                before = counters(model)
                model.learn_many(chunk, batch_size=mode)
                twin.learn_many(chunk, batch_size=mode)
                assert counter_increments(model, before) == dict.fromkeys(COUNTERS, 0)
                model.tree.validate()
            assert seed_keyed_state(model) == seed_keyed_state(twin)
            start += size


# --------------------------------------------------------------------------- #
# idle gaps that underflow every stored density
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(("origin", "gap"), [(0.0, 1e6), (1.7e9, 4e5)])
def test_an_idle_gap_past_underflow(monkeypatch, origin, gap):
    """After the gap every density decays to 0, so cells absorb with ``rho_before`` 0."""
    seen = []
    theorem_one = DPTree.theorem_one

    def spy(self, cell_id, dependency, now, rho_before, *args):
        seen.append(rho_before)
        return theorem_one(self, cell_id, dependency, now, rho_before, *args)

    monkeypatch.setattr(DPTree, "theorem_one", spy)
    head = SDSGenerator(n_points=1500, rate=1000.0, seed=7).generate()
    tail = SDSGenerator(n_points=1500, rate=1000.0, seed=8).generate()
    points = [(p.values, origin + p.timestamp) for p in head]
    resume = points[-1][1] + gap
    points += [(p.values, resume + p.timestamp) for p in tail]
    assert 0.998**gap == 0.0

    models = [
        EDMStream(
            radius=0.3,
            # Low enough that the 1.5 s after the gap activate cells
            # against the steady-state threshold (β·v/(1 − a) = 2.5).
            beta=5e-6,
            stream_rate=1000.0,
            enable_density_filter=filtered,
            enable_triangle_filter=filtered,
        )
        for filtered in (True, False)
    ]
    for values, timestamp in points:
        for model in models:
            model.learn_one(values, timestamp=timestamp)
    model, twin = models
    model.tree.validate()
    assert 0.0 in seen
    assert model.filter_stats.density_filtered > 0
    assert len(model.tree) > 1
    assert seed_keyed_state(model) == seed_keyed_state(twin)
