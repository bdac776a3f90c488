"""Output checks run by every benchmark run; each failure counts as an error."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from repro import EDMStream

from workloads import BATCH, PREFIX, Inputs, make_model

Partition = FrozenSet[FrozenSet[Tuple[float, ...]]]


def seed_partition(model: EDMStream) -> Partition:
    """The clustering as sets of cell seeds (cell ids differ between models)."""
    cells = {cell.cell_id: tuple(cell.seed) for cell in model.tree.cells()}
    return frozenset(
        frozenset(cells[member] for member in members)
        for members in model.clusters().values()
    )


def batch_matches_oracle(inputs: Inputs) -> List[str]:
    """Batch ingest of the stream's prefix reproduces the per-point oracle."""
    prefix = inputs.points[:PREFIX]
    batch, oracle = make_model(inputs), make_model(inputs)
    batch.learn_many(prefix, batch_size=BATCH)
    oracle.learn_many(prefix, batch_size=None)
    problems = []
    if seed_partition(batch) != seed_partition(oracle):
        problems.append(f"batch partition differs from the oracle on {len(prefix)} points")
    shape = lambda m: (m.n_active_cells, m.n_inactive_cells, m.n_clusters)  # noqa: E731
    if shape(batch) != shape(oracle):
        problems.append(f"batch cells/clusters {shape(batch)} != oracle {shape(oracle)}")
    return problems


def predict_agrees(model: EDMStream, queries: np.ndarray) -> List[str]:
    """``predict_many`` returns, row for row, what ``predict_one`` returns."""
    many = model.predict_many(queries).tolist()
    one = [model.predict_one(row) for row in queries]
    if many != one:
        wrong = sum(a != b for a, b in zip(many, one))
        return [f"predict_many disagrees with predict_one on {wrong}/{len(one)} queries"]
    return []


def tree_valid(model: EDMStream) -> List[str]:
    """The DP-Tree's structural invariants hold."""
    try:
        model.tree.validate()
    except AssertionError as exc:
        return [f"DP-Tree invalid: {exc}"]
    return []


def counts_repeat(rounds: List[Dict[str, float]]) -> List[str]:
    """Every exact count is the same in every round that reports it."""
    seen: Dict[str, float] = {}
    problems = []
    for index, counts in enumerate(rounds):
        for key, value in counts.items():
            if key in seen and seen[key] != value:
                problems.append(f"round {index}: {key}={value} != {seen[key]}")
            seen.setdefault(key, value)
    return problems
