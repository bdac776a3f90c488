"""Density keys, and ``learn_one``'s Theorem 1 by the DP-Tree's density order.

Every cell stores its density as a key κ = ln ρ − ℓ·(t − t₀) (see
:class:`~repro.core.soa.CellArrays`), and every density decision compares
keys.  With the density filter on, the per-point dependency update finds
the cells an absorber newly dominates from a band of the DP-Tree's key
order (:meth:`DPTree.theorem_one <repro.core.dptree.DPTree.theorem_one>`)
instead of a full dominance mask.  The tests below hold:

* ``theorem_one`` to the full mask on hand-built populations with tied
  keys on both sides of the absorber's id, also after the order was kept
  up to date through ``add``/``remove``/``write_key``;
* the filtered model, on random streams (duplicates, bursts, idle gaps
  past underflow, λ ≠ 1, ``float32``, a memory cap, ``learn_one``
  interleaved with ``learn_many``), to a twin with both filters off — every
  active cell's seed-keyed ``(dep, δ, key)`` — and its filter counters to a
  brute-force Theorem 1/2 recount from the key column, call by call;
* keys to stay finite and ordered after idle gaps that underflow every
  density, and the densities read from them to stay within the documented
  rounding bound of an exact evaluation of Equation 8.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import EDMStream
from repro.core.decay import DecayModel, log_add
from repro.core.dptree import DPTree, dominates
from repro.core.filters import FilterStatistics
from repro.core.soa import CellArrays
from repro.distance.metrics import pairwise_euclidean
from repro.streams import SDSGenerator
from repro.streams.point import StreamPoint

# --------------------------------------------------------------------------- #
# theorem_one against the full mask, on hand-built populations
# --------------------------------------------------------------------------- #

#: How a cell's key relates to the absorber's: anywhere, exactly at its key
#: before or after the absorb (ties, broken by id), or one ulp to either
#: side of those.
_KINDS = ["any", "at_before", "at_after", "below_before", "above_before", "below_after"]


@st.composite
def _population(draw):
    """The absorber's keys before and after, and the other cells' keys.

    Each other cell is created before or after the absorber, so ties with
    its keys fall on both sides of its id.
    """
    key_before = draw(
        st.sampled_from([-3.0, 0.0, 2.5, 1e3, 3.4e6])
        | st.floats(min_value=-1e4, max_value=1e4)
    )
    gain = draw(st.sampled_from([0.0, 2.0**-40, math.log(2.0)]) | st.floats(0.0, 50.0))
    key_after = key_before + gain
    cells = []
    for kind in draw(st.lists(st.sampled_from(_KINDS), max_size=30)):
        value = {
            "at_before": key_before,
            "at_after": key_after,
            "below_before": math.nextafter(key_before, -math.inf),
            "above_before": math.nextafter(key_before, math.inf),
            "below_after": math.nextafter(key_after, -math.inf),
        }.get(kind)
        if value is None:
            value = draw(st.floats(min_value=key_before - 60.0, max_value=key_after + 60.0))
        cells.append((value, draw(st.booleans())))
    return key_before, key_after, cells


def _build(population, order):
    """A DP-Tree over ``population`` whose absorber's key just went up.

    Returns ``(tree, absorber, key_before)``; the absorber's column holds
    its new key, written through ``write_key``, which also moves its entry
    when the order is live.  ``order`` builds the order before that write.
    """
    key_before, key_after, cells = population
    arena = CellArrays()
    tree = DPTree(numeric=True, arrays=arena)
    older = [arena.create((float(i),), key=key) for i, (key, first) in enumerate(cells) if first]
    absorber = arena.create((-1.0,), key=key_before)
    younger = [arena.create((float(i),), key=k) for i, (k, first) in enumerate(cells) if not first]
    tree.add_many(younger + [absorber] + older)
    if order:
        tree.theorem_one(absorber, -1, key_before)
    tree.write_key(absorber, arena.slot_of(absorber), key_after)
    return tree, absorber, key_before


def _mask_answer(tree, absorber, key_before):
    """What a full dominance mask over the key column decides.

    The cells the absorber newly dominates are those it dominates now whose
    key is at least its key before the absorb.  Its dominators, which a
    stale own link is refreshed over, come from the mask ``relink`` builds
    for one row; ``None`` while the link holds.
    """
    keys = tree.keys()
    ids = tree.ids_array()
    key_after = keys[tree.position_of(absorber)]
    dominated = dominates(key_after, absorber, keys, ids)
    kept = (dominated & (keys >= key_before)).nonzero()[0]
    arena = tree.arrays
    dependency = int(arena.dep[arena.slot_of(absorber)])
    stale = dependency not in tree or bool(dominated[tree.position_of(dependency)])
    dominators = None
    if stale:
        dominators = dominates(keys, ids, key_after, absorber).nonzero()[0].tolist()
    return kept.tolist(), dominators


def _check(tree, absorber, key_before):
    dependency = int(tree.arrays.dep[tree.arrays.slot_of(absorber)])
    positions, dominators = tree.theorem_one(absorber, dependency, key_before)
    if dominators is not None:
        assert dominators.dtype == np.int64
        dominators = dominators.tolist()
    assert (positions.tolist(), dominators) == _mask_answer(tree, absorber, key_before)
    tree.validate()


@settings(max_examples=150, deadline=None)
@given(_population(), st.booleans(), st.data())
def test_theorem_one_equals_the_full_mask(population, order, data):
    tree, absorber, key_before = _build(population, order)
    others = [cell_id for cell_id in tree.ids() if cell_id != absorber]
    dependency = data.draw(st.sampled_from(others + [-1, -2]))
    tree.arrays.dep[tree.arrays.slot_of(absorber)] = dependency
    _check(tree, absorber, key_before)


@settings(max_examples=60, deadline=None)
@given(_population(), st.data())
def test_the_order_follows_membership_and_key_writes(population, data):
    """Once built, the order is kept by add/remove/write_key, not rebuilt."""
    tree, absorber, key_before = _build(population, order=True)
    arena = tree.arrays
    key_after = float(arena.key[arena.slot_of(absorber)])
    others = [cell_id for cell_id in tree.ids() if cell_id != absorber]
    for cell_id in data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []:
        if data.draw(st.booleans()):
            tree.remove(cell_id)
        else:
            value = data.draw(st.sampled_from([-1e3, key_before, key_after, 3.0]))
            tree.write_key(cell_id, arena.slot_of(cell_id), value)
    tree.add(arena.create((-2.0,), key=key_before))
    tree.validate()
    _check(tree, absorber, key_before)


def test_validate_catches_a_key_written_behind_the_order():
    tree, absorber, key_before = _build((2.0, 3.0, [(4.0, True), (9.0, False)]), order=True)
    tree.validate()
    cell_id = next(cell_id for cell_id in tree.ids() if cell_id != absorber)
    tree.arrays.key[tree.arrays.slot_of(cell_id)] = 7.5  # not through write_key
    with pytest.raises(AssertionError, match="density order stale"):
        tree.validate()


def test_a_dropped_order_is_rebuilt_from_the_key_column():
    tree, absorber, key_before = _build(
        (2.0, 3.0, [(4.0, True), (3.0, False), (2.0, True), (-50.0, False)]), order=True
    )
    tree.drop_density_order()
    for cell_id in tree.ids():
        if cell_id != absorber:
            tree.arrays.key[tree.arrays.slot_of(cell_id)] += 0.75  # a bulk writer
    _check(tree, absorber, key_before)


@pytest.mark.parametrize("lam", [1.0, 0.5, 1000.0])
@pytest.mark.parametrize("origin", [0.0, 1.7e9])
def test_cells_seeded_at_the_same_time_tie_until_one_absorbs(lam, origin):
    """Two cells seeded together tie, and the older one dominates by id.

    When the younger absorbs, it newly dominates the older cell, and its
    link to it goes stale.
    """
    arena = CellArrays(log_rate=DecayModel(lam=lam).log_rate)
    arena.origin = origin
    tree = DPTree(numeric=True, arrays=arena)
    seeded = arena.arrival_key(origin + 1.25)
    older, younger = (arena.create((x,), key=seeded) for x in (0.0, 1.0))
    tree.add_many([older, younger])
    arena.dep[arena.slot_of(younger)] = older
    now = origin + 9.5
    tree.write_key(younger, arena.slot_of(younger), log_add(seeded, arena.arrival_key(now)))
    kept, dominators = tree.theorem_one(younger, older, seeded)
    assert kept.tolist() == [tree.position_of(older)]
    assert dominators.tolist() == []  # the link to the older cell went stale


# --------------------------------------------------------------------------- #
# whole streams: the filtered model against an unfiltered twin
# --------------------------------------------------------------------------- #


def seed_keyed_state(model):
    """Every active cell as ``{seed: (dependency's seed, δ, key)}``."""
    arena = model._cells
    seed_of = {
        cell_id: arena.seed_of(slot)
        for cell_id, slot in zip(model.tree.ids(), model.tree.slots().tolist())
    }
    return {
        seed_of[cell_id]: (
            seed_of.get(int(arena.dep[slot])),
            float(arena.delta[slot]),
            float(arena.key[slot]),
        )
        for cell_id, slot in zip(model.tree.ids(), model.tree.slots().tolist())
    }


def recount(model, values, timestamp):
    """Brute-force Theorem 1/2 verdicts for one ``learn_one`` call, from the key column.

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
    keys = active.keys()
    deltas = active.deltas()
    query = np.asarray(values, dtype=arena.seed_dtype).reshape(1, -1)
    distances = pairwise_euclidean(query, active.seed_view())[0]
    density_on = model.config.enable_density_filter
    triangle_on = model.config.enable_triangle_filter

    def counts(absorber):
        if absorber not in ids:
            return zero
        position = int(np.flatnonzero(ids == absorber)[0])
        key_after = log_add(keys[position], arena.arrival_key(now))
        others = ids != absorber
        newly = dominates(key_after, absorber, keys, ids) & (keys >= keys[position])
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
#: ties), a burst (no time passes) or an idle gap after which every density
#: has underflowed to 0.
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


#: Cells seeded at (2, 0) and, by a burst, at (0.5, 0) at the same time tie
#: in density; when the second absorbs, it newly dominates the first, which
#: Theorem 1 must hand to the triangle filter.
_SAME_TIME_SEEDS = (
    [("step", (0.0, 0.0), 0.0, 0.5)]
    + [("step", (0.0, 0.0), 0.0, 0.0)] * 2
    + [("step", (2.0, 0.0), 0.0, 0.0), ("burst", (0.0, 0.0), 0.5, 0.0)]
    + [("step", (0.0, 0.0), 0.0, 0.0)] * 3
    + [("step", (0.0, 0.0), 0.5, 0.0), ("step", (0.0, 0.0), 0.0, 0.0)]
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
@example(_SAME_TIME_SEEDS, [(1, "one")], (True, True), 1.0, "float64", None, 0.0)
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
# idle gaps that underflow every density
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(("origin", "gap"), [(0.0, 1e6), (1.7e9, 4e5)])
def test_an_idle_gap_past_underflow(monkeypatch, origin, gap):
    """After the gap every density read from a key is 0, but the keys still decide."""
    clock = [origin]
    seen = []
    theorem_one = DPTree.theorem_one

    def spy(self, cell_id, dependency, key_before):
        # The absorber's log density just before it absorbed.
        seen.append(key_before - self.arrays.arrival_key(clock[0]))
        return theorem_one(self, cell_id, dependency, key_before)

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
        clock[0] = timestamp
        for model in models:
            model.learn_one(values, timestamp=timestamp)
    model, twin = models
    model.tree.validate()
    # Some absorber held a density that had underflowed to 0 when it absorbed.
    assert any(math.exp(log_density) == 0.0 for log_density in seen)
    assert model.filter_stats.density_filtered > 0
    assert len(model.tree) > 1
    assert seed_keyed_state(model) == seed_keyed_state(twin)


@pytest.mark.parametrize("origin", [0.0, 1.7e9])
def test_a_cell_idle_past_underflow_keeps_a_finite_key_below_a_fresh_cell(origin):
    arena = CellArrays(log_rate=DecayModel().log_rate)
    arena.origin = origin
    tree = DPTree(numeric=True, arrays=arena)
    # A dense cell last fed at the origin, and a cell seeded 10⁶ s later.
    stale = arena.create((0.0,), key=math.log(5000.0) + arena.arrival_key(origin))
    now = origin + 1e6
    fresh = arena.create((1.0,), key=arena.arrival_key(now))
    tree.add_many([fresh, stale])
    assert arena.density_at(arena.slot_of(stale), now) == 0.0
    assert arena.density_at(arena.slot_of(fresh), now) == 1.0
    assert math.isfinite(arena.key[arena.slot_of(stale)])
    keys = {cell_id: arena.key[arena.slot_of(cell_id)] for cell_id in (stale, fresh)}
    assert bool(dominates(keys[fresh], fresh, keys[stale], stale))
    tree.relink(np.arange(2), FilterStatistics())
    assert tree.get(stale).dependency == fresh
    assert tree.get(fresh).dependency is None
    kept, dominators = tree.theorem_one(fresh, -1, arena.arrival_key(now))
    assert (kept.tolist(), dominators.tolist()) == ([], [])
    tree.validate()


def test_validate_rejects_a_key_that_is_not_finite():
    arena = CellArrays()
    tree = DPTree(numeric=True, arrays=arena)
    cell_id = arena.create((0.0,))
    tree.add(cell_id)
    tree.validate()
    arena.key[arena.slot_of(cell_id)] = np.nan
    with pytest.raises(AssertionError, match=f"key of cell {cell_id} is not finite"):
        tree.validate()


# --------------------------------------------------------------------------- #
# precision of the keys against an exact Equation 8
# --------------------------------------------------------------------------- #


def _key_precision_stream(origin, lam):
    """10⁴ points around three centres, 0 to 100/λ s apart: Λ reaches about 860."""
    rng = np.random.default_rng(3)
    centres = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    points, t = [], origin
    for _ in range(10_000):
        t += 50.0 / lam * float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        values = centres[rng.integers(3)] + rng.normal(0.0, 0.05, 2)
        points.append(StreamPoint(values=tuple(values.tolist()), timestamp=t))
    return points


@pytest.mark.parametrize(
    ("batch_size", "origin", "lam"),
    [(None, 0.0, 1.0), (256, 1.7e9, 1.0), (None, 1.7e9, 0.5), (256, 0.0, 0.5)],
)
def test_densities_read_from_keys_stay_within_the_rounding_bound(batch_size, origin, lam):
    """Each cell's density at its last absorb, from its key, against Eq. 8 in 60 digits.

    The documented bound is ``(8 + A)·(Λ + ln ρ + 2)·2⁻⁵³`` relative, with
    ``Λ = |ℓ|·(t − t₀)`` and ``A`` the mean number of absorbs the cell's
    current mass has been through (at most its absorb count; about ρ at a
    steady rate).  ``A·ρ`` decays and grows like a density: it gains the
    new density at every absorb.
    """
    points = _key_precision_stream(origin, lam)
    model = EDMStream(
        radius=0.5, beta=0.01, stream_rate=0.02 * lam, decay_lambda=lam, init_size=50
    )
    assigned = model.learn_many(points, batch_size=batch_size)
    exact = {}
    with localcontext() as context:
        context.prec = 60
        log_rate = Decimal(model.config.decay_a).ln() * Decimal(model.config.decay_lambda)
        for cell_id, point in zip(assigned, points):
            time = Decimal(point.timestamp)
            density, mass_age, last = exact.get(cell_id, (Decimal(0), Decimal(0), time))
            factor = (log_rate * (time - last)).exp()
            density = density * factor + 1
            exact[cell_id] = (density, mass_age * factor + density, time)
    arena = model._cells
    worst = 0.0
    for cell_id, (density, mass_age, last) in exact.items():
        if cell_id not in arena:
            continue
        spread = abs(model.decay.log_rate) * (float(last) - origin)
        absorbs = float(mass_age / density)
        bound = (8.0 + absorbs) * (spread + math.log(float(density)) + 2.0) * 2.0**-53
        read = arena.density_at(arena.slot_of(cell_id), float(last))
        worst = max(worst, abs(float(Decimal(read) / density - 1)) / bound)
    assert spread > 800.0
    assert 0.0 < worst <= 1.0
