"""The numeric input contract: finite values, one fixed dimension.

A NaN row or a row of the wrong dimension is rejected with a ``ValueError``
naming the row, before any state changes, by ``learn_one``, both
``learn_many`` engines (checked once per micro-batch), ``predict_one`` and
``predict_many``.  A rejected call leaves the model valid and as it was:
further ingestion matches a model that never saw the call.
"""

import math

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
        (tuple(cell.seed), cell.density, cell.last_update, cell.cell_id in model.tree)
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
