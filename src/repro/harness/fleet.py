"""Declarative run-matrix executor over the experiment registry.

The fleet runner turns the registry's :class:`~repro.harness.registry.ExperimentSpec`
entries into a reproducible benchmark/ablation matrix:

* a :class:`RunMatrix` expands a config (TOML/JSON file, plain mapping, or
  just registry tag/id filters) into concrete :class:`PlannedRun` entries —
  one per experiment, or one per parameter-grid combination of a config
  entry;
* :class:`FleetRunner` executes the matrix on a ``ProcessPoolExecutor``
  worker pool, writing one durable result directory per run
  (``results/<matrix>/<run_id>/`` holding ``metadata.json``,
  ``result.json`` and ``report.txt``);
* ``--resume`` skips runs whose directory already holds a valid
  ``metadata.json`` with a matching fingerprint; partial directories left
  by a crash (no metadata, or a stale fingerprint) are wiped and
  re-executed;
* after the matrix completes, the consolidated ``BENCH_*.json`` artifacts
  are rebuilt from the durable results (identical fields whether the run
  executed now or was resumed) and the registry gates are evaluated.

``metadata.json`` is written last and atomically (tmp file + ``os.replace``),
so its presence is the validity marker: a worker killed mid-run can never
leave a directory that resumes as complete.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness import registry
from repro.harness.results import ExperimentResult, jsonify

__all__ = [
    "FleetReport",
    "FleetRunner",
    "PlannedRun",
    "RunMatrix",
]

#: Default root for per-run result directories (``<root>/<matrix>/<run_id>/``).
DEFAULT_RESULTS_ROOT = "results"
#: Default directory for the consolidated ``BENCH_*.json`` artifacts.
DEFAULT_ARTIFACTS_DIR = os.path.join("benchmarks", "results")

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.=+-]+")


def _slug(value: Any) -> str:
    return _SLUG_RE.sub("-", str(value)).strip("-") or "x"


# --------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlannedRun:
    """One concrete run of the matrix: an experiment plus pinned inputs."""

    run_id: str
    experiment_id: str
    points: Optional[int] = None
    seed: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()
    artifact: Optional[str] = None
    #: The default-parameter run of its spec; only canonical runs emit the
    #: consolidated benchmark artifact (a config's grid sweeps are exploratory).
    canonical: bool = True

    def fingerprint(self) -> str:
        """Stable identity of the run's inputs; a mismatch invalidates resume."""
        identity = jsonify(
            {
                "experiment_id": self.experiment_id,
                "points": self.points,
                "seed": self.seed,
                "params": self.params,
            }
        )
        blob = json.dumps(identity, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class RunMatrix:
    """A named, ordered collection of planned runs."""

    name: str
    runs: Tuple[PlannedRun, ...]

    # ------------------------------------------------------------------ #
    @classmethod
    def from_registry(
        cls,
        name: str = "fleet",
        tags: Sequence[str] = (),
        ids: Sequence[str] = (),
        points: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "RunMatrix":
        """Expand registry specs selected by ``tags`` / ``ids`` into a matrix.

        With neither filter, every registered experiment is selected.  Each
        spec contributes one run with its benchmark parameters (resolved at
        planning time, honouring the ``BENCH_*`` environment knobs).
        """
        selected: Dict[str, registry.ExperimentSpec] = {}
        if not tags and not ids:
            selected = registry.all_experiments()
        for tag in tags:
            selected.update(registry.experiments_with_tag(tag))
        for experiment_id in ids:
            selected[experiment_id] = registry.get_experiment(experiment_id)
        runs: List[PlannedRun] = []
        for experiment_id in sorted(selected):
            spec = selected[experiment_id]
            runs.extend(
                _expand_spec(spec, points=points, seed=seed, grid=None, params=None)
            )
        return cls(name=name, runs=tuple(runs))

    @classmethod
    def from_mapping(cls, config: Mapping[str, Any]) -> "RunMatrix":
        """Build a matrix from a config mapping (the parsed TOML/JSON shape).

        Schema::

            name = "nightly"            # matrix name (result-dir component)
            [defaults]                  # optional run defaults
            points = 20000
            seed = 7
            [[runs]]                    # one entry per selector
            id = "fig10_batch"          # ... or tag = "bench"
            points = 8000               # optional overrides
            seed = 11
            [runs.params]               # fixed driver kwargs
            datasets = ["SDS"]
            [runs.grid]                 # kwarg -> list of values (cartesian)
            batch_sizes = [[64], [256]]
        """
        defaults = dict(config.get("defaults", {}))
        default_points = defaults.get("points")
        default_seed = defaults.get("seed")
        runs: List[PlannedRun] = []
        for entry in config.get("runs", []):
            specs: List[registry.ExperimentSpec] = []
            if "id" in entry:
                specs.append(registry.get_experiment(entry["id"]))
            elif "tag" in entry:
                specs.extend(registry.experiments_with_tag(entry["tag"]).values())
            else:
                raise ValueError(f"matrix entry needs an 'id' or 'tag': {entry!r}")
            for spec in specs:
                runs.extend(
                    _expand_spec(
                        spec,
                        points=entry.get("points", default_points),
                        seed=entry.get("seed", default_seed),
                        grid=entry.get("grid"),
                        params=entry.get("params"),
                    )
                )
        return cls(name=str(config.get("name", "fleet")), runs=_dedupe(runs))

    @classmethod
    def from_file(cls, path: os.PathLike) -> "RunMatrix":
        """Load a matrix config from a ``.toml`` or ``.json`` file."""
        path = pathlib.Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".toml":
            try:
                import tomllib
            except ImportError as exc:  # pragma: no cover - python < 3.11
                raise RuntimeError(
                    "TOML matrix configs need Python >= 3.11 (tomllib); "
                    "use an equivalent .json config instead"
                ) from exc
            config = tomllib.loads(text)
        elif path.suffix == ".json":
            config = json.loads(text)
        else:
            raise ValueError(f"unsupported matrix config suffix: {path.suffix!r}")
        matrix = cls.from_mapping(config)
        if "name" not in config:
            matrix = replace(matrix, name=path.stem)
        return matrix

    # ------------------------------------------------------------------ #
    def filter(
        self, tags: Sequence[str] = (), ids: Sequence[str] = ()
    ) -> "RunMatrix":
        """Keep only runs matching any of ``tags`` or any of ``ids``."""
        if not tags and not ids:
            return self
        kept = tuple(
            run
            for run in self.runs
            if run.experiment_id in ids or any(tag in run.tags for tag in tags)
        )
        return replace(self, runs=kept)

    def __len__(self) -> int:
        return len(self.runs)


def _expand_spec(
    spec: registry.ExperimentSpec,
    points: Optional[int],
    seed: Optional[int],
    grid: Optional[Mapping[str, Sequence[Any]]],
    params: Optional[Mapping[str, Any]],
) -> List[PlannedRun]:
    """One :class:`PlannedRun` per combination of a matrix entry's ``grid``."""
    base = dict(spec.params())
    bench_points = base.pop("points", None)
    base.update(params or {})
    grid = grid or {}
    names = sorted(grid)
    combos = [
        dict(zip(names, values))
        for values in itertools.product(*(grid[name] for name in names))
    ] or [{}]
    runs = []
    for combo in combos:
        run_params = {**base, **combo}
        run = PlannedRun(
            run_id=_run_id(spec.experiment_id, combo, points, seed),
            experiment_id=spec.experiment_id,
            points=points if points is not None else bench_points,
            seed=seed,
            params=jsonify(run_params),
            tags=spec.tags,
            artifact=spec.artifact,
            canonical=not combo,
        )
        runs.append(run)
    return runs


def _run_id(
    experiment_id: str,
    combo: Mapping[str, Any],
    points: Optional[int],
    seed: Optional[int],
) -> str:
    parts = [experiment_id]
    for key in sorted(combo):
        parts.append(f"{_slug(key)}={_slug(combo[key])}")
    if points is not None:
        parts.append(f"points={points}")
    if seed is not None:
        parts.append(f"seed={seed}")
    return "--".join(parts)


def _dedupe(runs: Sequence[PlannedRun]) -> Tuple[PlannedRun, ...]:
    seen: Dict[str, PlannedRun] = {}
    for run in runs:
        seen.setdefault(run.run_id, run)
    return tuple(seen.values())


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
@dataclass
class RunOutcome:
    """What happened to one planned run during a fleet execution."""

    run: PlannedRun
    status: str  # "ok" | "resumed" | "failed" | "not-run"
    directory: pathlib.Path
    duration_s: float = 0.0
    error: Optional[str] = None
    gate_passed: Optional[bool] = None
    gate_error: Optional[str] = None


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet execution."""

    matrix: RunMatrix
    outcomes: List[RunOutcome]
    artifacts: List[pathlib.Path]

    @property
    def ok(self) -> bool:
        """True when every run completed (now or resumed) and every gate passed."""
        return all(o.status in ("ok", "resumed") for o in self.outcomes) and all(
            o.gate_passed is not False for o in self.outcomes
        )

    def to_text(self) -> str:
        """Human-readable one-line-per-run summary."""
        lines = [f"== fleet: {self.matrix.name} ({len(self.outcomes)} runs) =="]
        for outcome in self.outcomes:
            gate = ""
            if outcome.gate_passed is True:
                gate = " gate=pass"
            elif outcome.gate_passed is False:
                gate = " gate=FAIL"
            detail = f" ({outcome.error})" if outcome.error else ""
            lines.append(
                f"{outcome.run.run_id:<40s} {outcome.status:<7s} "
                f"{outcome.duration_s:7.1f}s{gate}{detail}"
            )
        for path in self.artifacts:
            lines.append(f"artifact: {path}")
        return "\n".join(lines)


def _git_sha() -> Optional[str]:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.SubprocessError):
        return None


def _execute_run(run_payload: Dict[str, Any], run_dir: str) -> Dict[str, Any]:
    """Worker entry point: execute one run and persist its result directory.

    ``metadata.json`` is written last (atomically), so a crash at any
    earlier point leaves an invalid directory that a resumed fleet
    re-executes.
    """
    directory = pathlib.Path(run_dir)
    directory.mkdir(parents=True, exist_ok=True)
    spec = registry.get_experiment(run_payload["experiment_id"])
    started = time.time()
    result = spec.run(
        points=run_payload["points"],
        seed=run_payload["seed"],
        **run_payload["params"],
    )
    finished = time.time()
    (directory / "report.txt").write_text(result.to_text() + "\n", encoding="utf-8")
    (directory / "result.json").write_text(
        json.dumps(result.to_payload(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    # Drivers that ran with live telemetry (the repro.obs convention) put a
    # phase/event breakdown into metadata["telemetry"]; persist it per run
    # so fleet output directories carry the observability record alongside
    # report.txt / result.json.
    telemetry = result.metadata.get("telemetry")
    if telemetry is not None:
        (directory / "telemetry.json").write_text(
            json.dumps(telemetry, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    metadata = {
        "run_id": run_payload["run_id"],
        "experiment_id": run_payload["experiment_id"],
        "points": run_payload["points"],
        "seed": run_payload["seed"],
        "params": run_payload["params"],
        "tags": list(run_payload["tags"]),
        "artifact": run_payload["artifact"],
        "canonical": run_payload["canonical"],
        "fingerprint": run_payload["fingerprint"],
        "git_sha": run_payload["git_sha"],
        "python": sys.version.split()[0],
        "status": "ok",
        "started_at": started,
        "finished_at": finished,
        "duration_s": round(finished - started, 3),
    }
    tmp = directory / "metadata.json.tmp"
    tmp.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, directory / "metadata.json")
    return metadata


def _load_valid_metadata(
    directory: pathlib.Path, fingerprint: str
) -> Optional[Dict[str, Any]]:
    """The run's metadata if its directory is a valid completed result."""
    metadata_path = directory / "metadata.json"
    if not metadata_path.is_file() or not (directory / "result.json").is_file():
        return None
    try:
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if metadata.get("status") != "ok" or metadata.get("fingerprint") != fingerprint:
        return None
    return metadata


class FleetRunner:
    """Executes a :class:`RunMatrix` on a worker pool with durable results.

    Parameters
    ----------
    matrix:
        The planned runs.
    results_root:
        Root directory; each run lands in ``<root>/<matrix.name>/<run_id>/``.
    jobs:
        Worker-pool size.  ``0`` executes runs inline in this process
        (useful for debugging and doctests); ``None`` uses the CPU count.
    resume:
        Skip runs whose result directory already holds a valid
        ``metadata.json`` with a matching fingerprint; wipe and re-run
        anything else.
    gate:
        Evaluate the registry gates on every completed (or resumed) run.
    artifacts_dir:
        Where the consolidated ``BENCH_*.json`` files are written.
    """

    def __init__(
        self,
        matrix: RunMatrix,
        results_root: os.PathLike = DEFAULT_RESULTS_ROOT,
        jobs: Optional[int] = None,
        resume: bool = False,
        gate: bool = True,
        artifacts_dir: os.PathLike = DEFAULT_ARTIFACTS_DIR,
    ) -> None:
        self.matrix = matrix
        self.results_root = pathlib.Path(results_root)
        self.jobs = (os.cpu_count() or 1) if jobs is None else jobs
        self.resume = resume
        self.gate = gate
        self.artifacts_dir = pathlib.Path(artifacts_dir)

    # ------------------------------------------------------------------ #
    def run_dir(self, run: PlannedRun) -> pathlib.Path:
        """The durable result directory of one planned run."""
        return self.results_root / self.matrix.name / run.run_id

    def execute(self, echo=print) -> FleetReport:
        """Run the matrix; returns the aggregate report."""
        git_sha = _git_sha()
        outcomes: Dict[str, RunOutcome] = {}
        pending: List[PlannedRun] = []

        for run in self.matrix.runs:
            directory = self.run_dir(run)
            if self.resume and _load_valid_metadata(directory, run.fingerprint()):
                outcomes[run.run_id] = RunOutcome(run, "resumed", directory)
                echo(f"[fleet] resume: skipping completed {run.run_id}")
                continue
            if directory.exists():
                if self.resume:
                    echo(f"[fleet] resume: {run.run_id} is partial/stale, re-running")
                shutil.rmtree(directory)
            pending.append(run)

        self._execute_pending(pending, outcomes, git_sha, echo)
        ordered = [outcomes[run.run_id] for run in self.matrix.runs]
        artifacts = self._consolidate(ordered, echo)
        if self.gate:
            self._evaluate_gates(ordered, echo)
        return FleetReport(matrix=self.matrix, outcomes=ordered, artifacts=artifacts)

    # ------------------------------------------------------------------ #
    def _payload(self, run: PlannedRun, git_sha: Optional[str]) -> Dict[str, Any]:
        return {
            "run_id": run.run_id,
            "experiment_id": run.experiment_id,
            "points": run.points,
            "seed": run.seed,
            "params": run.params,
            "tags": run.tags,
            "artifact": run.artifact,
            "canonical": run.canonical,
            "fingerprint": run.fingerprint(),
            "git_sha": git_sha,
        }

    def _execute_pending(
        self,
        pending: List[PlannedRun],
        outcomes: Dict[str, RunOutcome],
        git_sha: Optional[str],
        echo,
    ) -> None:
        if not pending:
            return
        if self.jobs == 0:
            for run in pending:
                outcomes[run.run_id] = self._execute_inline(run, git_sha, echo)
            return
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max(1, min(self.jobs, len(pending)))
        ) as pool:
            futures = {
                pool.submit(
                    _execute_run, self._payload(run, git_sha), str(self.run_dir(run))
                ): run
                for run in pending
            }
            for future in concurrent.futures.as_completed(futures):
                run = futures[future]
                directory = self.run_dir(run)
                try:
                    metadata = future.result()
                    outcomes[run.run_id] = RunOutcome(
                        run, "ok", directory, duration_s=metadata["duration_s"]
                    )
                    echo(f"[fleet] done: {run.run_id} ({metadata['duration_s']:.1f}s)")
                except concurrent.futures.process.BrokenProcessPool as exc:
                    # A worker died (OOM-kill, SIGKILL, hard crash).  The
                    # whole pool is broken; every run without a result is
                    # recorded as failed and the partial directories stay
                    # invalid for the next --resume pass to redo.
                    for other, other_run in futures.items():
                        if other_run.run_id not in outcomes:
                            outcomes[other_run.run_id] = RunOutcome(
                                other_run,
                                "failed",
                                self.run_dir(other_run),
                                error=f"worker pool broke: {exc}",
                            )
                    echo(f"[fleet] worker pool broke: {exc}")
                    return
                except Exception as exc:  # noqa: BLE001 - per-run isolation
                    outcomes[run.run_id] = RunOutcome(
                        run, "failed", directory, error=f"{type(exc).__name__}: {exc}"
                    )
                    echo(f"[fleet] FAILED: {run.run_id}: {exc}")

    def _execute_inline(
        self, run: PlannedRun, git_sha: Optional[str], echo
    ) -> RunOutcome:
        directory = self.run_dir(run)
        try:
            metadata = _execute_run(self._payload(run, git_sha), str(directory))
        except Exception as exc:  # noqa: BLE001 - per-run isolation
            echo(f"[fleet] FAILED: {run.run_id}: {exc}")
            return RunOutcome(
                run, "failed", directory, error=f"{type(exc).__name__}: {exc}"
            )
        echo(f"[fleet] done: {run.run_id} ({metadata['duration_s']:.1f}s)")
        return RunOutcome(run, "ok", directory, duration_s=metadata["duration_s"])

    # ------------------------------------------------------------------ #
    def _stored_result(self, outcome: RunOutcome) -> ExperimentResult:
        payload = json.loads(
            (outcome.directory / "result.json").read_text(encoding="utf-8")
        )
        return ExperimentResult.from_payload(payload)

    def _consolidate(self, outcomes: List[RunOutcome], echo) -> List[pathlib.Path]:
        """Rebuild the consolidated ``BENCH_*.json`` artifacts from run dirs."""
        artifacts: List[pathlib.Path] = []
        for outcome in outcomes:
            run = outcome.run
            if not run.artifact or not run.canonical:
                continue
            if outcome.status not in ("ok", "resumed"):
                echo(f"[fleet] artifact {run.artifact} skipped: {run.run_id} did not complete")
                continue
            spec = registry.get_experiment(run.experiment_id)
            payload = spec.payload(self._stored_result(outcome))
            self.artifacts_dir.mkdir(parents=True, exist_ok=True)
            path = self.artifacts_dir / run.artifact
            path.write_text(
                json.dumps(jsonify(payload), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            echo(f"[fleet] wrote {path}")
            artifacts.append(path)
        return artifacts

    def _evaluate_gates(self, outcomes: List[RunOutcome], echo) -> None:
        for outcome in outcomes:
            if outcome.status not in ("ok", "resumed"):
                continue
            spec = registry.get_experiment(outcome.run.experiment_id)
            if spec.gate is None:
                continue
            try:
                spec.gate(self._stored_result(outcome))
            except AssertionError as exc:
                outcome.gate_passed = False
                outcome.gate_error = str(exc)
                echo(f"[fleet] gate FAILED for {outcome.run.run_id}: {exc}")
            else:
                outcome.gate_passed = True
