"""The experiment registry: the one table every harness surface reads.

Each experiment is declared once, by a :func:`register` call placed beside
its driver in :mod:`repro.harness.experiments`,
:mod:`repro.harness.scenarios` or :mod:`repro.harness.ablations`.  The
call carries everything the harness needs to know about it:

* ``tags`` group experiments into runnable slices (``paper``,
  ``ablation``, ``scale``, ``bench`` — the last one is the CI benchmark
  matrix);
* ``params`` resolves the benchmark's driver parameters at run time, so
  CI can tune workloads through ``BENCH_*`` environment knobs;
* ``artifact`` and ``payload`` name and build the ``BENCH_*.json`` file
  the benchmark emits;
* ``gate`` holds the assertions CI enforces on the result.

The CLI's ``list`` output and ``run`` choices, the fleet runner's matrix
expansion and the CI gates all derive from :func:`all_experiments`.
Importing this module imports :mod:`repro.harness`, which imports the
three driver modules, so the table is full once the import returns.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.harness.results import ExperimentResult

__all__ = [
    "ExperimentSpec",
    "all_experiments",
    "experiments_with_tag",
    "get_experiment",
    "register",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment and how it runs, is recorded and is gated."""

    experiment_id: str
    description: str
    #: The driver function.  :meth:`run` passes it ``n_points`` and ``seed``
    #: only when the caller gives them, so the driver's own signature holds
    #: the default point budget.
    driver: Callable[..., ExperimentResult]
    #: Slices this experiment belongs to (``bench`` marks the CI matrix).
    tags: Tuple[str, ...] = ()
    #: Zero-argument callable resolving the benchmark's driver kwargs at run
    #: time (so ``BENCH_*`` environment knobs are honoured).  The key
    #: ``"points"`` is the point budget; everything else goes to the driver.
    params: Callable[[], Dict[str, Any]] = dict
    #: Name of the ``BENCH_*.json`` artifact this benchmark emits, or ``None``.
    artifact: Optional[str] = None
    #: Builds the artifact payload from the result; required with
    #: ``artifact``.  Like the gate, it may only consume what
    #: ``ExperimentResult.to_payload`` round-trips (tables, series,
    #: metadata), so resumed fleet runs rebuild it without re-execution.
    payload: Optional[Callable[[ExperimentResult], Dict[str, Any]]] = None
    #: Assertions run against the result (raises ``AssertionError`` on a
    #: violation); thresholds may read environment knobs.
    gate: Optional[Callable[[ExperimentResult], None]] = None

    def run(
        self,
        points: Optional[int] = None,
        seed: Optional[int] = None,
        **params: Any,
    ) -> ExperimentResult:
        """Execute the driver with optional point-budget/seed/param overrides.

        A ``points`` or ``seed`` given twice, here and in ``params`` (as
        ``n_points``/``seed``), raises ``TypeError``.
        """
        overrides = {"n_points": points, "seed": seed}
        return self.driver(
            **{name: value for name, value in overrides.items() if value is not None},
            **params,
        )


_REGISTRY: Dict[str, ExperimentSpec] = {}
_EXTRAS_IMPORTED = False


def register(
    experiment_id: str,
    description: str,
    driver: Callable[..., ExperimentResult],
    *,
    tags: Sequence[str] = (),
    params: Callable[[], Dict[str, Any]] = dict,
    artifact: Optional[str] = None,
    payload: Optional[Callable[[ExperimentResult], Dict[str, Any]]] = None,
    gate: Optional[Callable[[ExperimentResult], None]] = None,
) -> ExperimentSpec:
    """Add (or replace) one experiment in the registry."""
    spec = ExperimentSpec(
        experiment_id,
        description,
        driver,
        tags=tuple(tags),
        params=params,
        artifact=artifact,
        payload=payload,
        gate=gate,
    )
    _REGISTRY[experiment_id] = spec
    return spec


def all_experiments() -> Dict[str, ExperimentSpec]:
    """Every registered experiment, id -> spec (a copy, sorted by id)."""
    _import_extras()
    return {key: _REGISTRY[key] for key in sorted(_REGISTRY)}


def experiments_with_tag(tag: str) -> Dict[str, ExperimentSpec]:
    """The registered experiments carrying ``tag``, id -> spec, sorted."""
    return {
        key: spec for key, spec in all_experiments().items() if tag in spec.tags
    }


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment; raises ``KeyError`` with the known ids."""
    _import_extras()
    if experiment_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[experiment_id]


def _import_extras() -> None:
    """Import the modules named in ``REPRO_REGISTRY_EXTRA`` (once).

    The environment variable holds a comma-separated list of importable
    module names; importing each module is expected to call
    :func:`register`.  This is the hook test harnesses (and downstream
    deployments) use to add experiments visible to subprocess fleet runs.
    """
    global _EXTRAS_IMPORTED
    if _EXTRAS_IMPORTED:
        return
    _EXTRAS_IMPORTED = True
    extra = os.environ.get("REPRO_REGISTRY_EXTRA", "")
    for module_name in filter(None, (name.strip() for name in extra.split(","))):
        importlib.import_module(module_name)
