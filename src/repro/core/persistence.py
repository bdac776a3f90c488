"""Saving and restoring EDMStream model state.

A long-running stream clusterer needs to survive process restarts without
replaying the whole stream.  This module serialises everything EDMStream
needs to continue exactly where it left off — the configuration, the active
cells with their DP-Tree dependencies, the outlier reservoir, the learned α
and the current τ — into a plain JSON-compatible dictionary:

* :func:`model_to_dict` / :func:`model_from_dict` — in-memory round trip,
* :func:`save_model` / :func:`load_model` — JSON file round trip.

Cells are written from their arena rows and restored straight into the new
model's arena under their saved ids.  Cell seeds are stored as coordinate
lists for numeric metrics and as token lists for the Jaccard metric;
evolution history and performance counters are intentionally *not*
persisted (they describe the past run, not the state needed to continue
clustering).
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, Union

from repro.core.cell import ClusterCell
from repro.core.config import EDMStreamConfig
from repro.core.edmstream import EDMStream
from repro.core.soa import ensure_cell_id_floor
from repro.distance.text import TokenSetPoint

#: Format version written into every snapshot, checked on load.  Version 2
#: stores each cell's density key (``key``) where version 1 stored a density
#: and the time it was last brought current.
FORMAT_VERSION = 2

#: Config keys that earlier snapshots carry but :class:`EDMStreamConfig` no
#: longer has: the sketch geometry is now always derived from the memory cap.
_RETIRED_CONFIG_KEYS = (
    "sketch_width",
    "sketch_depth",
    "sketch_bloom_capacity",
    "sketch_bloom_error_rate",
    "sketch_revive_min",
)

__all__ = [
    "FORMAT_VERSION",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]


def _encode_value(value: float) -> Union[float, str]:
    """JSON-safe encoding of a float (infinity is not valid JSON)."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _decode_value(value: Union[float, str]) -> float:
    return float("inf") if value == "inf" else float(value)


def _encode_seed(seed: Any, numeric: bool) -> Any:
    if numeric:
        return [float(v) for v in seed]
    if isinstance(seed, TokenSetPoint):
        return {"tokens": sorted(seed.tokens), "text": seed.text}
    if isinstance(seed, (frozenset, set)):
        return {"tokens": sorted(seed), "text": None}
    raise TypeError(f"cannot serialise seed of type {type(seed).__name__}")


def _decode_seed(data: Any, numeric: bool) -> Any:
    if numeric:
        return tuple(float(v) for v in data)
    return TokenSetPoint(tokens=frozenset(data["tokens"]), text=data.get("text"))


def _encode_cell(cell: ClusterCell, numeric: bool) -> Dict[str, Any]:
    return {
        "cell_id": cell.cell_id,
        "seed": _encode_seed(cell.seed, numeric),
        "key": cell.key,
        "created_at": cell.created_at,
        "last_absorb": cell.last_absorb,
        "dependency": cell.dependency,
        "delta": _encode_value(cell.delta),
        "points_absorbed": cell.points_absorbed,
    }


def _restore_cell(model: EDMStream, data: Dict[str, Any]) -> int:
    """Allocate one saved cell, without its dependency, in the model's arena.

    Cells saved by earlier versions also carry a ``label_votes`` histogram,
    which nothing reads; it is ignored.
    """
    cell_id = int(data["cell_id"])
    model._cells.allocate(
        cell_id,
        _decode_seed(data["seed"], model._numeric),
        key=float(data["key"]),
        created_at=float(data["created_at"]),
        last_absorb=float(data["last_absorb"]),
        points_absorbed=int(data["points_absorbed"]),
    )
    return cell_id


def model_to_dict(model: EDMStream) -> Dict[str, Any]:
    """Serialise an EDMStream model into a JSON-compatible dictionary.

    Each population is written in its store's array order, so a restored
    model publishes its snapshot rows in the order the saved one did.
    """
    numeric = model._numeric
    active = [_encode_cell(cell, numeric) for cell in model.tree.cells()]
    inactive = [_encode_cell(cell, numeric) for cell in model.reservoir.cells()]
    config = dict(model.config.__dict__)
    # A Telemetry instance is live process state: persist only whether it was on.
    config["telemetry"] = config["telemetry"] not in (None, False)
    return {
        "format_version": FORMAT_VERSION,
        "config": config,
        "state": {
            "tau": model._tau,
            "alpha": model.tau_optimizer.alpha,
            "now": model._now,
            "start_time": model._start_time,
            "n_points": model._n_points,
            "initialized": model._initialized,
            "last_maintenance": model._last_maintenance,
            "last_snapshot": model._last_snapshot,
            "last_tau_opt": model._last_tau_opt,
        },
        "active_cells": active,
        "inactive_cells": inactive,
    }


def model_from_dict(data: Dict[str, Any]) -> EDMStream:
    """Rebuild an EDMStream model from :func:`model_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot format version {version!r} (expected {FORMAT_VERSION})"
        )
    config = EDMStreamConfig(
        **{k: v for k, v in data["config"].items() if k not in _RETIRED_CONFIG_KEYS}
    )
    model = EDMStream(config)

    # Each population in its saved order: the active cells first, without
    # dependencies, then the links once every node exists.  A link whose
    # target is not in the tree stays cut.
    for cell_data in data["active_cells"]:
        model.tree.add(_restore_cell(model, cell_data))
    for cell_data in data["active_cells"]:
        dependency = cell_data["dependency"]
        if dependency is not None and dependency in model.tree:
            model.tree.set_dependency(
                int(cell_data["cell_id"]), dependency, _decode_value(cell_data["delta"])
            )
    for cell_data in data["inactive_cells"]:
        model.reservoir.add(_restore_cell(model, cell_data))

    state = data["state"]
    model._tau = state["tau"]
    model.tau_optimizer.alpha = state["alpha"]
    model._now = float(state["now"])
    if state["start_time"] is not None:
        model._start_clock(float(state["start_time"]))
    model._n_points = int(state["n_points"])
    model._initialized = bool(state["initialized"])
    model._last_maintenance = float(state["last_maintenance"])
    model._last_snapshot = float(state["last_snapshot"])
    model._last_tau_opt = float(state["last_tau_opt"])
    if model._tau is not None:
        model.tau_history.append((model._now, model._tau))

    ensure_cell_id_floor(max(model._cells.ids(), default=0))
    return model


def save_model(model: EDMStream, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write a model snapshot to a JSON file and return its path.

    The snapshot is serialised completely before the file is opened, so a
    model that fails to serialise leaves an existing file at ``path`` intact.
    """
    text = json.dumps(model_to_dict(model))
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target


def load_model(path: Union[str, pathlib.Path]) -> EDMStream:
    """Load a model snapshot written by :func:`save_model`."""
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        data = json.load(handle)
    return model_from_dict(data)
