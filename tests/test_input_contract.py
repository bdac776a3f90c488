"""The input contract: finite values, one fixed dimension, finite timestamps.

A NaN row or a row of the wrong dimension is rejected with a ``ValueError``
naming the row, before any state changes, by ``learn_one``, both
``learn_many`` engines (checked once per micro-batch), ``predict_one`` and
``predict_many``.  A timestamp that is not a finite real number (NaN,
±inf, a string) is rejected the same way by ``learn_one`` and
``learn_many``; ``None`` keeps meaning the next arrival at the stream rate,
and any other real type (``Fraction``, a numpy scalar, ``int``) becomes a
float, so every engine keeps its clock in float.
A rejected call leaves the model valid and as it was: further ingestion
matches a model that never saw the call.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro import EDMStream
from repro.core.soa import CellArrays
from repro.streams.point import StreamPoint

ENGINES = (None, 256)


def make_stream(n, dim=3, seed=0, start=0.0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, dim)) + rng.integers(0, 3, size=(n, 1)) * 4.0
    return [
        StreamPoint(values=tuple(row.tolist()), timestamp=start + 0.001 * i, label=None)
        for i, row in enumerate(values)
    ]


def cell_state(model):
    """Every cell keyed by seed (cell ids are process-global)."""
    cells = list(model.tree.cells()) + list(model.reservoir.cells())
    return sorted(
        (tuple(cell.seed), cell.key, cell.last_absorb, cell.cell_id in model.tree)
        for cell in cells
    )


def with_bad_row(points, row, values):
    bad = list(points)
    bad[row] = StreamPoint(values=values, timestamp=points[row].timestamp)
    return bad


@pytest.mark.parametrize("batch_size", ENGINES)
@pytest.mark.parametrize(
    "values, message",
    [
        ((0.5, math.nan, 0.5), "row 17 has a non-finite value"),
        ((0.5, math.inf, 0.5), "row 17 has a non-finite value"),
        ((0.5, 0.5), "row 17 has 2 values, expected 3"),
        ((0.5, 0.5, 0.5, 0.5), "row 17 has 4 values, expected 3"),
        (5.0, "row 17 is not a 1-D vector"),
        ([[0.5, 0.5, 0.5]], "row 17 is not a 1-D vector"),
    ],
)
def test_learn_many_rejects_bad_rows_before_any_state_change(batch_size, values, message):
    prefix = make_stream(600)
    call = make_stream(100, seed=1, start=0.6)
    rest = make_stream(300, seed=2, start=0.7)

    reference = EDMStream(radius=0.5, init_size=200)
    reference.learn_many(prefix, batch_size=batch_size)
    reference.learn_many(rest, batch_size=batch_size)

    model = EDMStream(radius=0.5, init_size=200)
    model.learn_many(prefix, batch_size=batch_size)
    before = (model.n_points, model.now, cell_state(model))
    with pytest.raises(ValueError, match=message):
        model.learn_many(with_bad_row(call, 17, values), batch_size=batch_size)
    model._cells.validate()
    model._active.validate()
    model._inactive.validate()
    assert (model.n_points, model.now, cell_state(model)) == before

    model.learn_many(rest, batch_size=batch_size)
    assert cell_state(model) == cell_state(reference)
    assert model.n_clusters == reference.n_clusters


def test_both_engines_reject_a_nan_stream_alike():
    """Unchecked, a NaN row made the two engines build different cells."""
    points = make_stream(600)
    points = with_bad_row(points, 300, (points[300].values[0], math.nan, 0.0))
    for batch_size in ENGINES:
        model = EDMStream(radius=0.3)
        with pytest.raises(ValueError, match="row 300 has a non-finite value"):
            model.learn_many(points, batch_size=batch_size)
        model._cells.validate()


def test_learn_one_rejects_bad_points_before_any_state_change():
    model = EDMStream(radius=0.5, init_size=50)
    model.learn_many(make_stream(100), batch_size=None)
    before = (model.n_points, model.now, cell_state(model))
    with pytest.raises(ValueError, match="non-finite"):
        model.learn_one((0.0, math.nan, 0.0), timestamp=5.0)
    with pytest.raises(ValueError, match="has 2 values, expected 3"):
        model.learn_one((0.0, 0.0), timestamp=5.0)
    for values in (5.0, [[0.0, 0.0, 0.0]], None):
        with pytest.raises(ValueError, match="row 0 is not a 1-D vector"):
            model.learn_one(values, timestamp=5.0)
    model._cells.validate()
    assert (model.n_points, model.now, cell_state(model)) == before


def test_first_batch_fixes_the_dimension():
    model = EDMStream(radius=0.5)
    with pytest.raises(ValueError, match="row 2 has 3 values, expected 2"):
        model.learn_many([(0.0, 0.0), (1.0, 1.0), (1.0, 1.0, 1.0)], batch_size=16)
    assert model.n_points == 0 and model._cells.dim is None


def test_predictions_check_the_contract():
    model = EDMStream(radius=0.5, init_size=50)
    model.learn_many(make_stream(300))
    version = model.snapshot().version
    with pytest.raises(ValueError, match="row 0 has a non-finite value"):
        model.predict_one((0.0, math.nan, 0.0))
    with pytest.raises(ValueError, match="row 0 has 2 values, expected 3"):
        model.predict_one((0.0, 0.0))
    with pytest.raises(ValueError, match="row 1 has a non-finite value"):
        model.predict_many([(0.0, 0.0, 0.0), (math.inf, 0.0, 0.0)])
    with pytest.raises(ValueError, match="row 1 has 4 values, expected 3"):
        model.predict_many([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
    assert model.snapshot().version == version
    good = [p.values for p in make_stream(20, seed=5)]
    assert model.predict_many(good).tolist() == [model.predict_one(v) for v in good]
    assert model.predict_many([]).tolist() == []


def test_check_rows_returns_the_float_matrix():
    arena = CellArrays(numeric=True)
    rows = [(1, 2), (3.5, 4.0)]
    matrix = arena.check_rows(rows)
    assert matrix.dtype == np.float64 and matrix.tolist() == [[1.0, 2.0], [3.5, 4.0]]
    arena.allocate(0, (0.0, 0.0))
    with pytest.raises(ValueError, match="row 5 has 3 values, expected 2"):
        arena.check_rows([(0.0, 0.0, 0.0)], first_row=5)


@pytest.mark.parametrize("batch_size", ENGINES)
def test_fresh_model_rejects_scalar_rows(batch_size):
    model = EDMStream(radius=0.5)
    with pytest.raises(ValueError, match="row 0 is not a 1-D vector: 5.0"):
        model.learn_many([5.0, 6.0], batch_size=batch_size)
    assert model.n_points == 0 and model._cells.dim is None
    model._cells.validate()
    with pytest.raises(ValueError, match="row 0 is not a 1-D vector: 5.0"):
        CellArrays(numeric=True).check_rows([5.0, 6.0])


@pytest.mark.parametrize(
    "rows, message",
    [
        # 3 + 1 values: the total is 2 rows x 2 columns, the rows are not.
        ([(1.0, 2.0, 3.0), (4.0,)], "row 0 has 3 values, expected 2"),
        ([[1.0], [2.0, 3.0, 4.0]], "row 0 has 1 values, expected 2"),
        ([(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)], "row 1 has 1 values, expected 2"),
    ],
)
def test_ragged_rows_whose_total_fits_the_matrix_are_rejected(rows, message):
    arena = CellArrays(numeric=True)
    arena.allocate(0, (0.0, 0.0))
    with pytest.raises(ValueError, match=message):
        arena.check_rows(rows)


def test_rows_with_vector_elements_are_rejected_like_before():
    arena = CellArrays(numeric=True)
    arena.allocate(0, (0.0, 0.0))
    with pytest.raises(ValueError):
        arena.check_rows([(1.0, 2.0), (np.array([1.0]), 2.0)])
    with pytest.raises(ValueError, match="row 0 is not a 1-D vector"):
        arena.check_rows(["12"])
    mixed = arena.check_rows([(1, 2.5), [np.float32(0.5), True]])
    assert mixed.tolist() == [[1.0, 2.5], [0.5, 1.0]]


NOT_FINITE = "timestamp that is not a finite real number"


def ingest(model, points, call):
    if call == "learn_one":
        for point in points:
            model.learn_one(point.values, timestamp=point.timestamp)
    else:
        model.learn_many(points, batch_size=call)


@pytest.mark.parametrize("call", ["learn_one", 1, 256])
@pytest.mark.parametrize("prefix", [0, 600], ids=["first-point", "mid-stream"])
@pytest.mark.parametrize(
    "timestamp", [math.nan, math.inf, -math.inf, "1.5"], ids=["nan", "+inf", "-inf", "str"]
)
def test_bad_timestamps_are_rejected_before_any_state_change(timestamp, prefix, call):
    """Unchecked, a NaN made ``now`` NaN in the batch engine and was ignored by
    ``learn_one``; a NaN first timestamp left every density key stale, an
    infinite one pinned ``now`` and emptied the DP-Tree, and a string was
    read as a number by the batch engine but raised ``TypeError`` in
    ``learn_one``."""
    head = make_stream(prefix)
    call_points = make_stream(100, seed=1, start=0.6)
    # Mid-stream, a micro-batch engine gets the bad row inside its batch.
    row = 17 if call == 256 and prefix else 0

    reference = EDMStream(radius=0.5, init_size=200)
    ingest(reference, head, call)
    ingest(reference, call_points, call)

    model = EDMStream(radius=0.5, init_size=200)
    ingest(model, head, call)
    before = (model.n_points, model.now, model.summary(), cell_state(model))
    if call == "learn_one":
        with pytest.raises(ValueError, match="timestamp is not a finite real number: "):
            model.learn_one(call_points[row].values, timestamp=timestamp)
    else:
        bad = list(call_points)
        bad[row] = StreamPoint(values=bad[row].values, timestamp=timestamp)
        with pytest.raises(ValueError, match=f"row {row} has a {NOT_FINITE}"):
            model.learn_many(bad, batch_size=call)
    model.tree.validate()
    model._cells.validate()
    assert (model.n_points, model.now, model.summary(), cell_state(model)) == before

    ingest(model, call_points, call)
    model.tree.validate()
    assert cell_state(model) == cell_state(reference)


@pytest.mark.parametrize("batch_size", ENGINES)
def test_a_nan_timestamp_among_stream_rate_arrivals_rejects_its_batch(batch_size):
    points = [StreamPoint(values=(0.1 * i, 0.0), timestamp=None) for i in range(40)]
    points[25] = StreamPoint(values=(2.5, 0.0), timestamp=math.nan)
    model = EDMStream(radius=0.5, init_size=10)
    with pytest.raises(ValueError, match=f"row 25 has a {NOT_FINITE}: nan"):
        model.learn_many(points, batch_size=batch_size)
    assert model.n_points == 0 and model._start_time is None
    model._cells.validate()


def partition(model):
    """The clusters as sets of seeds."""
    seed_of = {cell.cell_id: tuple(cell.seed) for cell in model.tree.cells()}
    return {
        frozenset(seed_of[member] for member in members) for members in model.clusters().values()
    }


@pytest.mark.parametrize(
    "make_time",
    [
        lambda i: Fraction(i, 100),
        lambda i: np.float32(i / 100),
        lambda i: np.int64(i // 100),
        lambda i: i // 100,
    ],
    ids=["Fraction", "float32", "int64", "int"],
)
def test_every_engine_keeps_its_clock_in_float(make_time):
    """``learn_one`` stored a timestamp of another real type as given, so its
    clock ran in that type while the batch engine's ran in float64."""
    points = [
        StreamPoint(values=point.values, timestamp=make_time(i))
        for i, point in enumerate(make_stream(600))
    ]
    models = [EDMStream(radius=0.5, init_size=50, stream_rate=100.0) for _ in range(3)]
    for point in points:
        models[0].learn_one(point.values, timestamp=point.timestamp)
    models[1].learn_many(points, batch_size=None)
    models[2].learn_many(points, batch_size=256)
    for model in models:
        assert type(model.now) is float and type(model._start_time) is float
        assert (model.now, model._start_time) == (models[0].now, models[0]._start_time)
        model.tree.validate()
    assert models[0].now == float(points[-1].timestamp)
    cells = cell_state(models[0])
    assert cell_state(models[1]) == cells
    assert len(partition(models[0])) > 1
    assert partition(models[1]) == partition(models[2]) == partition(models[0])
    batch_cells = cell_state(models[2])
    assert [(s, t, a) for s, _, t, a in batch_cells] == [(s, t, a) for s, _, t, a in cells]
    # The batch engine sums a batch's freshness in one log-sum-exp.
    assert [d for _, d, _, _ in batch_cells] == pytest.approx([d for _, d, _, _ in cells], rel=1e-9)
