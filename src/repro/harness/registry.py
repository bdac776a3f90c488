"""The experiment registry: one table every harness surface derives from.

Historically ``repro.harness.cli`` kept its own hard-coded id -> driver
table, which silently drifted from the drivers as experiments were added
(the ``serve`` and ``memory`` ids both landed as follow-up patches).  The
registry is now the single source of truth: the CLI's ``list`` output,
its ``run`` choices, the fleet runner's matrix expansion and the CI
gates all derive from
:func:`all_experiments`, so a driver registered here is automatically
everywhere.

Since the fleet redesign an :class:`ExperimentSpec` is a full *run
contract*, not just an id -> factory pair:

* ``tags`` group experiments into runnable slices (``paper``,
  ``ablation``, ``scale``, ``bench`` — the last one is the CI benchmark
  matrix);
* ``default_points`` is the point budget ``run()`` applies when the
  caller does not override it;
* ``grid`` is the default parameter grid the fleet expands the spec
  into (most specs expand to a single run);
* ``bench`` (a :class:`BenchContract`) describes how the experiment runs
  *as a benchmark*: the exact parameters (resolved at run time so CI can
  tune workloads through ``BENCH_*`` environment knobs), the emitted
  ``BENCH_*.json`` artifact name, the artifact payload builder, and the
  gate assertions CI enforces.  The contracts live in
  :mod:`repro.harness.gates`.

Registration stays declarative and drivers are imported lazily, so
importing the registry is cheap.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.harness.results import ExperimentResult

__all__ = [
    "BenchContract",
    "ExperimentSpec",
    "all_experiments",
    "experiments_with_tag",
    "get_experiment",
    "register",
]


@dataclass(frozen=True)
class BenchContract:
    """How one experiment runs, is recorded, and is gated as a benchmark.

    Parameters
    ----------
    params:
        Zero-argument callable resolving the benchmark's driver kwargs at
        run time (so ``BENCH_*`` environment knobs are honoured).  The
        special key ``"points"`` is the point budget; everything else is
        forwarded to the driver.
    artifact:
        Name of the consolidated machine-readable artifact
        (``BENCH_*.json``) this benchmark emits, or ``None``.
    payload:
        Builds the artifact payload from the experiment result.  Required
        when ``artifact`` is set.  Must only consume what
        ``ExperimentResult.to_payload`` round-trips (tables, series,
        metadata), so artifacts can be rebuilt from resumed runs.
    gate:
        Assertion block run against the result (raises ``AssertionError``
        on violation); thresholds may read environment knobs.
    """

    params: Callable[[], Dict[str, Any]] = dict
    artifact: Optional[str] = None
    payload: Optional[Callable[[ExperimentResult], Dict[str, Any]]] = None
    gate: Optional[Callable[[ExperimentResult], None]] = None


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: id, description, driver factory, run contract."""

    experiment_id: str
    description: str
    #: Callable ``factory(points, **kwargs)``; ``points=None`` means the
    #: driver's own default.  Factories registered by the built-in table
    #: accept ``seed=`` and arbitrary driver kwargs; minimal legacy
    #: factories taking only ``points`` keep working (extra kwargs they
    #: cannot accept are dropped).
    factory: Callable[..., ExperimentResult]
    #: Slices this experiment belongs to (``bench`` marks the CI matrix).
    tags: Tuple[str, ...] = ()
    #: Point budget applied when the caller passes ``points=None``.
    default_points: Optional[int] = None
    #: Default parameter grid for fleet expansion: mapping of driver kwarg
    #: to the values to sweep (cartesian product).  Empty = one run.
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    #: Benchmark contract (params/artifact/payload/gate), if any.
    bench: Optional[BenchContract] = None

    def run(
        self,
        points: Optional[int] = None,
        seed: Optional[int] = None,
        **params: Any,
    ) -> ExperimentResult:
        """Execute the driver with optional point-budget/seed/param overrides.

        ``seed`` and extra ``params`` are forwarded to the factory when it
        accepts them (all built-in factories do); a legacy factory taking
        only ``points`` silently ignores them, keeping old registrations
        runnable.
        """
        kwargs = dict(params)
        if seed is not None:
            kwargs["seed"] = seed
        if kwargs and not self._accepts_kwargs():
            kwargs = {}
        return self.factory(points, **kwargs)

    def _accepts_kwargs(self) -> bool:
        try:
            signature = inspect.signature(self.factory)
        except (TypeError, ValueError):  # builtins without signatures
            return False
        return any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in signature.parameters.values()
        )

    def grid_combinations(self) -> Tuple[Dict[str, Any], ...]:
        """Expand :attr:`grid` into concrete parameter combinations.

        An empty grid yields one empty combination (a single run with the
        spec's defaults).
        """
        if not self.grid:
            return ({},)
        names = sorted(self.grid)
        return tuple(
            dict(zip(names, values))
            for values in itertools.product(*(self.grid[name] for name in names))
        )

    def bench_params(self) -> Dict[str, Any]:
        """Resolve the benchmark driver kwargs (``points`` key included)."""
        if self.bench is None:
            return {}
        return dict(self.bench.params())


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(
    experiment_id: str,
    description: str,
    factory: Callable[..., ExperimentResult],
    *,
    tags: Sequence[str] = (),
    default_points: Optional[int] = None,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    bench: Optional[BenchContract] = None,
) -> ExperimentSpec:
    """Add (or replace) one experiment in the registry."""
    spec = ExperimentSpec(
        experiment_id,
        description,
        factory,
        tags=tuple(tags),
        default_points=default_points,
        grid=dict(grid or {}),
        bench=bench,
    )
    _REGISTRY[experiment_id] = spec
    return spec


def all_experiments() -> Dict[str, ExperimentSpec]:
    """Every registered experiment, id -> spec (a copy, sorted by id)."""
    _ensure_defaults()
    return {key: _REGISTRY[key] for key in sorted(_REGISTRY)}


def experiments_with_tag(tag: str) -> Dict[str, ExperimentSpec]:
    """The registered experiments carrying ``tag``, id -> spec, sorted."""
    return {
        key: spec for key, spec in all_experiments().items() if tag in spec.tags
    }


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment; raises ``KeyError`` with the known ids."""
    _ensure_defaults()
    if experiment_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[experiment_id]


def _ensure_defaults() -> None:
    """Populate the registry with the built-in drivers (idempotent)."""
    if _REGISTRY:
        return
    from repro.harness import ablations, experiments, gates, scenarios

    contracts = gates.bench_contracts()

    def entry(
        experiment_id: str,
        description: str,
        factory: Callable[..., ExperimentResult],
        tags: Sequence[str],
        default_points: int,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
    ) -> None:
        register(
            experiment_id,
            description,
            factory,
            tags=tags,
            default_points=default_points,
            grid=grid,
            bench=contracts.get(experiment_id),
        )

    entry(
        "table2",
        "Table 2 — dataset inventory",
        lambda points, **kw: experiments.experiment_table2(
            surrogate_points=points or 2000, **kw
        ),
        ("paper", "table"),
        2000,
    )
    entry(
        "fig7",
        "Figures 6-7 — SDS cluster evolution",
        lambda points, **kw: scenarios.experiment_evolution_sds(
            n_points=points or 20000, **kw
        ),
        ("paper", "evolution"),
        20000,
    )
    entry(
        "fig8",
        "Figure 8 / Table 3 — news-stream topic evolution",
        lambda points, **kw: scenarios.experiment_news_evolution(
            n_points=points or 8000, **kw
        ),
        ("paper", "evolution"),
        8000,
    )
    entry(
        "fig9",
        "Figure 9 — response time vs stream length",
        lambda points, **kw: experiments.experiment_response_time(
            n_points=points or 10000, **kw
        ),
        ("paper", "efficiency"),
        10000,
    )
    entry(
        "fig10",
        "Figure 10 — throughput",
        lambda points, **kw: experiments.experiment_throughput(
            n_points=points or 10000, **kw
        ),
        ("paper", "efficiency"),
        10000,
    )
    entry(
        "fig10_batch",
        "Figure 10 extension — micro-batch vs sequential ingestion throughput",
        lambda points, **kw: experiments.experiment_batch_throughput(
            n_points=points or 16000, **kw
        ),
        ("scale", "bench"),
        16000,
    )
    entry(
        "query",
        "Serving extension — snapshot predict_many vs per-point query loop",
        lambda points, **kw: experiments.experiment_query_throughput(
            n_points=points or 16000, **kw
        ),
        ("scale", "bench"),
        16000,
    )
    entry(
        "serve",
        "Serving tier — shared-memory snapshot fan-out QPS/latency vs workers",
        lambda points, **kw: experiments.experiment_serving(
            n_points=points or 4000, **kw
        ),
        ("scale", "bench"),
        4000,
    )
    entry(
        "memory",
        "Bounded-memory tier — sketch-backed cold cells under a byte cap",
        lambda points, **kw: experiments.experiment_memory(
            n_points=points or 50000, **kw
        ),
        ("scale", "bench"),
        50000,
    )
    entry(
        "obs",
        "Observability — telemetry overhead and off/on clustering identity",
        lambda points, **kw: experiments.experiment_obs_overhead(
            n_points=points or 16000, **kw
        ),
        ("scale", "bench"),
        16000,
    )
    entry(
        "fig11",
        "Figure 11 — dependency-update filtering ablation",
        lambda points, **kw: experiments.experiment_filtering(
            n_points=points or 20000, **kw
        ),
        ("paper", "efficiency"),
        20000,
    )
    entry(
        "fig12",
        "Figure 12 — response time vs dimensionality",
        lambda points, **kw: experiments.experiment_dimensions(
            n_points=points or 5000, **kw
        ),
        ("paper", "efficiency"),
        5000,
    )
    entry(
        "fig13",
        "Figure 13 — cluster quality (CMM)",
        lambda points, **kw: experiments.experiment_quality(
            n_points=points or 10000, **kw
        ),
        ("paper", "quality"),
        10000,
    )
    entry(
        "fig14",
        "Figure 14 — cluster quality vs stream rate",
        lambda points, **kw: experiments.experiment_stream_rate(
            n_points=points or 10000, **kw
        ),
        ("paper", "quality"),
        10000,
    )
    entry(
        "fig15",
        "Figure 15 / Table 4 — dynamic vs static tau",
        lambda points, **kw: scenarios.experiment_adaptive_tau(
            n_points=points or 20000, **kw
        ),
        ("paper", "evolution"),
        20000,
    )
    entry(
        "fig16",
        "Figure 16 — outlier reservoir size",
        lambda points, **kw: experiments.experiment_reservoir(
            n_points=points or 10000, **kw
        ),
        ("paper", "efficiency"),
        10000,
    )
    entry(
        "fig17",
        "Figure 17 — effect of the cluster-cell radius",
        lambda points, **kw: experiments.experiment_radius(
            n_points=points or 10000, **kw
        ),
        ("paper", "quality"),
        10000,
    )
    entry(
        "ablation",
        "Ablation — incremental DP-Tree vs periodic batch DP",
        lambda points, **kw: experiments.experiment_dptree_ablation(
            n_points=points or 10000, **kw
        ),
        ("paper", "ablation"),
        10000,
    )
    entry(
        "ablation_decay",
        "Ablation — decay half-life vs recovery from abrupt drift",
        lambda points, **kw: ablations.experiment_decay_ablation(
            n_points=points or 8000, **kw
        ),
        ("ablation",),
        8000,
    )
    entry(
        "ablation_beta",
        "Ablation — active-threshold multiplier beta",
        lambda points, **kw: ablations.experiment_beta_ablation(
            n_points=points or 8000, **kw
        ),
        ("ablation",),
        8000,
    )
    entry(
        "ablation_tracking",
        "Ablation — online evolution tracking vs offline MONIC / MEC",
        lambda points, **kw: ablations.experiment_tracking_comparison(
            n_points=points or 12000, **kw
        ),
        ("ablation",),
        12000,
    )
    entry(
        "ablation_cftree",
        "Ablation — CF-Tree (BIRCH) vs DP-Tree (EDMStream) under drift",
        lambda points, **kw: ablations.experiment_cftree_vs_dptree(
            n_points=points or 8000, **kw
        ),
        ("ablation",),
        8000,
    )
    _register_extras()


def _register_extras() -> None:
    """Import extra registration modules named in ``REPRO_REGISTRY_EXTRA``.

    The environment variable holds a comma-separated list of importable
    module names; importing each module is expected to call
    :func:`register`.  This is the hook test harnesses (and downstream
    deployments) use to add experiments visible to subprocess fleet runs.
    """
    import importlib
    import os

    extra = os.environ.get("REPRO_REGISTRY_EXTRA", "")
    for module_name in filter(None, (name.strip() for name in extra.split(","))):
        importlib.import_module(module_name)
