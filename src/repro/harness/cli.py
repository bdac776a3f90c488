"""Command-line interface for running the reproduction experiments.

Usage::

    python -m repro list
    python -m repro run fig9 --points 6000
    python -m repro run fig15 --output results/fig15.txt
    python -m repro fleet list --tag bench
    python -m repro fleet run --tag bench --resume --jobs 4
    python -m repro fleet run --matrix nightly.toml --seed 7
    python -m repro stats <token> --interval 1.0

Every experiment id corresponds to one table or figure of the paper's
Section 6 evaluation, one ablation, or one of the repo's extensions
(``serve``, ``memory``); ``run`` executes the driver and prints (or writes)
the rendered tables and series.
``fleet`` expands a run matrix over the registry (optionally from a
TOML/JSON config), executes it on a worker pool with one durable result
directory per run, resumes interrupted matrices, emits the consolidated
``BENCH_*.json`` artifacts, and enforces the registry gates.  ``stats``
attaches read-only to a live serving cluster's shared-memory stats block
and prints per-worker QPS / latency quantiles / staleness plus the ingest
phase breakdown (see :mod:`repro.obs.export`).

The CLI holds no experiment list of its own: ``list`` and the ``run``
choices read :mod:`repro.harness.registry`, so every registered driver
appears in both.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.harness import registry
from repro.harness.results import ExperimentResult


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the EDMStream (VLDB 2017) evaluation experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run = subparsers.add_parser("run", help="run one experiment and print its report")
    run.add_argument(
        "experiment", choices=sorted(registry.all_experiments()), help="experiment id"
    )
    run.add_argument(
        "--points",
        type=int,
        default=None,
        help="override the number of stream points (smaller = faster)",
    )
    run.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the report to this file instead of stdout",
    )

    fleet = subparsers.add_parser(
        "fleet", help="run a declarative experiment matrix on a worker pool"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run", help="execute the matrix (resumable, durable result dirs)"
    )
    fleet_list = fleet_sub.add_parser(
        "list", help="show the runs the matrix would execute, without running"
    )
    for sub in (fleet_run, fleet_list):
        sub.add_argument(
            "--matrix",
            type=str,
            default=None,
            help="TOML/JSON matrix config; omit to expand the registry directly",
        )
        sub.add_argument(
            "--tag",
            action="append",
            default=[],
            help="select experiments carrying this registry tag (repeatable)",
        )
        sub.add_argument(
            "--id",
            action="append",
            default=[],
            dest="ids",
            help="select one experiment id (repeatable)",
        )
        sub.add_argument(
            "--points", type=int, default=None, help="point-budget override for every run"
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=None,
            help="explicit seed, recorded in metadata.json and forwarded to the drivers",
        )
        sub.add_argument(
            "--name",
            type=str,
            default=None,
            help="matrix name (the results/<name>/ directory component)",
        )
    fleet_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker-pool size (0 = inline in this process; default: CPU count)",
    )
    fleet_run.add_argument(
        "--resume",
        action="store_true",
        help="skip runs whose result directory already holds a valid metadata.json",
    )
    fleet_run.add_argument(
        "--no-gate",
        action="store_true",
        help="skip the registry gate assertions after the runs complete",
    )
    fleet_run.add_argument(
        "--results-dir",
        type=str,
        default=None,
        help="root for per-run result directories (default: results/)",
    )
    fleet_run.add_argument(
        "--artifacts-dir",
        type=str,
        default=None,
        help="where consolidated BENCH_*.json files go (default: benchmarks/results/)",
    )

    stats = subparsers.add_parser(
        "stats", help="live stats of a running serving cluster (by token)"
    )
    stats.add_argument("token", help="serving-cluster token (ServingCluster.token)")
    stats.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between the two stats reads that rates are computed from",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the raw report as JSON instead of the rendered table",
    )
    return parser


def run_experiment(experiment_id: str, points: Optional[int] = None) -> ExperimentResult:
    """Execute one experiment driver by id."""
    return registry.get_experiment(experiment_id).run(points)


def _build_matrix(args) -> "object":
    """Expand the fleet matrix selected by the CLI arguments."""
    from repro.harness import fleet as fleet_mod

    if args.matrix:
        matrix = fleet_mod.RunMatrix.from_file(args.matrix)
        matrix = matrix.filter(tags=args.tag, ids=args.ids)
    else:
        name = args.name or ("-".join(args.tag) if args.tag else "fleet")
        matrix = fleet_mod.RunMatrix.from_registry(
            name=name,
            tags=args.tag,
            ids=args.ids,
            points=args.points,
            seed=args.seed,
        )
    if args.name:
        import dataclasses

        matrix = dataclasses.replace(matrix, name=args.name)
    return matrix


def _fleet_main(args) -> int:
    from repro.harness import fleet as fleet_mod

    matrix = _build_matrix(args)
    if args.fleet_command == "list":
        print(f"matrix {matrix.name}: {len(matrix)} runs")
        for run in matrix.runs:
            tags = ",".join(run.tags)
            artifact = f" -> {run.artifact}" if run.artifact and run.canonical else ""
            print(f"  {run.run_id:<40s} [{tags}]{artifact}")
        return 0
    if not matrix.runs:
        print("matrix is empty (no experiment matched the filters)")
        return 1
    runner = fleet_mod.FleetRunner(
        matrix,
        results_root=args.results_dir or fleet_mod.DEFAULT_RESULTS_ROOT,
        jobs=args.jobs,
        resume=args.resume,
        gate=not args.no_gate,
        artifacts_dir=args.artifacts_dir or fleet_mod.DEFAULT_ARTIFACTS_DIR,
    )
    report = runner.execute()
    print(report.to_text())
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "fleet":
        return _fleet_main(args)

    if args.command == "stats":
        from repro.obs.export import stats_main

        return stats_main(args.token, interval_s=args.interval, as_json=args.as_json)

    if args.command == "list":
        specs = registry.all_experiments()
        width = max(len(eid) for eid in specs) + 1
        for experiment_id, spec in specs.items():
            print(f"{experiment_id:<{width}s} {spec.description}")
        return 0

    result = run_experiment(args.experiment, points=args.points)
    report = result.to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
