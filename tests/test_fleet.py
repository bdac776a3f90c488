"""Tests for the fleet run-matrix executor (:mod:`repro.harness.fleet`).

Covers the declarative planning layer (registry/tag/config expansion, run
ids, fingerprints), the durable execution layer (result directories,
metadata, resume semantics, gates, artifact consolidation), the crash
story (a worker SIGKILLed mid-matrix leaves an invalid directory that a
``--resume`` pass re-executes, with byte-identical consolidated
artifacts), and the field-compatibility of the consolidated
``BENCH_*.json`` payloads with the pre-fleet per-script outputs.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.harness import fleet, registry
from repro.harness.fleet import FleetRunner, PlannedRun, RunMatrix
from repro.harness.registry import BenchContract
from repro.harness.results import ExperimentResult

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"


def _toy_result(experiment_id: str, value: int) -> ExperimentResult:
    result = ExperimentResult(experiment_id=experiment_id, description="toy")
    result.add_table("summary", [{"value": value}])
    result.metadata["value"] = value
    return result


def _toy_factory(experiment_id: str):
    def run(points, seed=None, scale=1, **kw):
        return _toy_result(experiment_id, scale * ((points or 3) * 10 + (seed or 0)))

    return run


@pytest.fixture
def toy_specs():
    """Register small in-process specs; the registry is restored afterwards."""
    registry.all_experiments()  # materialise the defaults first
    registry.register("_toy_plain", "toy", _toy_factory("_toy_plain"), tags=("toy",))
    registry.register(
        "_toy_art",
        "toy with an artifact contract",
        _toy_factory("_toy_art"),
        tags=("toy",),
        bench=BenchContract(
            params=lambda: {"points": 5},
            artifact="BENCH_toy.json",
            payload=lambda result: {
                "experiment": result.experiment_id,
                "value": result.metadata["value"],
                "rows": result.tables["summary"],
            },
            gate=lambda result: None,
        ),
    )
    registry.register(
        "_toy_grid",
        "toy with a default grid",
        _toy_factory("_toy_grid"),
        tags=("toy",),
        grid={"scale": (1, 100)},
    )
    yield
    for experiment_id in ("_toy_plain", "_toy_art", "_toy_grid"):
        registry._REGISTRY.pop(experiment_id, None)


# --------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------- #
class TestPlanning:
    def test_bench_tag_is_the_ci_matrix(self):
        assert sorted(registry.experiments_with_tag("bench")) == [
            "fig10_batch",
            "memory",
            "obs",
            "query",
            "serve",
        ]

    def test_from_registry_expands_tags_and_grids(self, toy_specs):
        matrix = RunMatrix.from_registry(name="toys", tags=("toy",))
        by_id = {}
        for run in matrix.runs:
            by_id.setdefault(run.experiment_id, []).append(run)
        assert sorted(by_id) == ["_toy_art", "_toy_grid", "_toy_plain"]
        # grid specs expand to one non-canonical run per combination
        grid_runs = by_id["_toy_grid"]
        assert [run.params["scale"] for run in grid_runs] == [1, 100]
        assert all(not run.canonical for run in grid_runs)
        assert grid_runs[0].run_id == "_toy_grid--scale=1"
        # contract params are resolved at planning time ("points" lifted out)
        (art,) = by_id["_toy_art"]
        assert art.canonical and art.points == 5 and art.artifact == "BENCH_toy.json"

    def test_run_id_slugs_points_and_seed(self):
        run_id = fleet._run_id("x", {"n_queries": 100}, points=500, seed=7)
        assert run_id == "x--n_queries=100--points=500--seed=7"

    def test_fingerprint_tracks_inputs(self):
        run = PlannedRun(run_id="r", experiment_id="x", points=10, seed=1)
        same = PlannedRun(run_id="other", experiment_id="x", points=10, seed=1)
        other = PlannedRun(run_id="r", experiment_id="x", points=10, seed=2)
        assert run.fingerprint() == same.fingerprint()
        assert run.fingerprint() != other.fingerprint()

    def test_from_mapping_defaults_grid_and_dedupe(self, toy_specs):
        matrix = RunMatrix.from_mapping(
            {
                "name": "nightly",
                "defaults": {"points": 7, "seed": 3},
                "runs": [
                    {"id": "_toy_plain", "grid": {"scale": [2, 4]}},
                    {"tag": "toy", "points": 9},
                ],
            }
        )
        assert matrix.name == "nightly"
        by_id = {run.run_id: run for run in matrix.runs}
        assert by_id["_toy_plain--scale=2--points=7--seed=3"].params["scale"] == 2
        # the tag entry contributes each toy spec once at points=9
        assert by_id["_toy_plain--points=9--seed=3"].points == 9
        assert by_id["_toy_art--points=9--seed=3"].seed == 3

    def test_from_file_json_and_filter(self, toy_specs, tmp_path):
        config = tmp_path / "matrix.json"
        config.write_text(
            json.dumps({"runs": [{"id": "_toy_plain"}, {"id": "_toy_art"}]})
        )
        matrix = RunMatrix.from_file(config)
        assert matrix.name == "matrix"  # falls back to the file stem
        assert len(matrix) == 2
        kept = matrix.filter(ids=("_toy_art",))
        assert [run.experiment_id for run in kept.runs] == ["_toy_art"]

    def test_from_file_toml(self, toy_specs, tmp_path):
        pytest.importorskip("tomllib")
        config = tmp_path / "matrix.toml"
        config.write_text(
            textwrap.dedent(
                """
                name = "tomltest"
                [[runs]]
                id = "_toy_plain"
                points = 4
                """
            )
        )
        matrix = RunMatrix.from_file(config)
        assert matrix.name == "tomltest"
        assert matrix.runs[0].points == 4


# --------------------------------------------------------------------- #
# Execution (inline pool, jobs=0)
# --------------------------------------------------------------------- #
class TestExecution:
    def _runner(self, tmp_path, ids, **kw):
        matrix = RunMatrix.from_registry(name="t", ids=ids, seed=kw.pop("seed", None))
        return FleetRunner(
            matrix,
            results_root=tmp_path / "results",
            jobs=0,
            artifacts_dir=tmp_path / "artifacts",
            **kw,
        )

    def test_durable_dirs_seed_metadata_and_artifact(self, toy_specs, tmp_path):
        runner = self._runner(tmp_path, ["_toy_art"], seed=13)
        report = runner.execute(echo=lambda *_: None)
        assert report.ok
        (outcome,) = report.outcomes
        assert outcome.status == "ok" and outcome.gate_passed is True
        directory = outcome.directory
        assert (directory / "report.txt").is_file()
        metadata = json.loads((directory / "metadata.json").read_text())
        assert metadata["seed"] == 13
        assert metadata["experiment_id"] == "_toy_art"
        assert metadata["fingerprint"] == outcome.run.fingerprint()
        assert metadata["status"] == "ok"
        # result.json round-trips to the same payload the driver produced
        stored = ExperimentResult.from_payload(
            json.loads((directory / "result.json").read_text())
        )
        assert stored.metadata["value"] == 5 * 10 + 13
        artifact = json.loads((tmp_path / "artifacts" / "BENCH_toy.json").read_text())
        assert artifact == {
            "experiment": "_toy_art",
            "value": 63,
            "rows": [{"value": 63}],
        }

    def test_resume_skips_valid_and_redoes_partial(self, toy_specs, tmp_path):
        runner = self._runner(tmp_path, ["_toy_art", "_toy_plain"])
        report = runner.execute(echo=lambda *_: None)
        assert report.ok
        art_dir = report.outcomes[0].directory
        plain_dir = report.outcomes[1].directory
        mtime = (art_dir / "metadata.json").stat().st_mtime_ns
        # simulate a crash on _toy_plain: metadata.json never landed
        (plain_dir / "metadata.json").unlink()

        resumed = self._runner(tmp_path, ["_toy_art", "_toy_plain"], resume=True)
        report = resumed.execute(echo=lambda *_: None)
        assert report.ok
        statuses = {o.run.experiment_id: o.status for o in report.outcomes}
        assert statuses == {"_toy_art": "resumed", "_toy_plain": "ok"}
        # the completed directory was not touched, the partial one was redone
        assert (art_dir / "metadata.json").stat().st_mtime_ns == mtime
        assert (plain_dir / "metadata.json").is_file()
        # the artifact is rebuilt from the stored result even for resumed runs
        assert (tmp_path / "artifacts" / "BENCH_toy.json").is_file()

    def test_resume_invalidates_stale_fingerprint(self, toy_specs, tmp_path):
        runner = self._runner(tmp_path, ["_toy_plain"])
        report = runner.execute(echo=lambda *_: None)
        directory = report.outcomes[0].directory
        metadata = json.loads((directory / "metadata.json").read_text())
        metadata["fingerprint"] = "0" * 16
        (directory / "metadata.json").write_text(json.dumps(metadata))

        resumed = self._runner(tmp_path, ["_toy_plain"], resume=True)
        report = resumed.execute(echo=lambda *_: None)
        assert report.outcomes[0].status == "ok"  # re-ran, not "resumed"

    def test_without_resume_existing_dirs_are_wiped(self, toy_specs, tmp_path):
        runner = self._runner(tmp_path, ["_toy_plain"])
        report = runner.execute(echo=lambda *_: None)
        directory = report.outcomes[0].directory
        (directory / "stale.marker").write_text("old")
        report = self._runner(tmp_path, ["_toy_plain"]).execute(echo=lambda *_: None)
        assert report.outcomes[0].status == "ok"
        assert not (directory / "stale.marker").exists()

    def test_failed_run_and_gate_failure_fail_the_report(self, tmp_path):
        registry.all_experiments()
        registry.register(
            "_toy_err",
            "always raises",
            lambda points, **kw: (_ for _ in ()).throw(ValueError("boom")),
        )
        registry.register(
            "_toy_badgate",
            "gate always fails",
            _toy_factory("_toy_badgate"),
            bench=BenchContract(
                gate=lambda result: (_ for _ in ()).throw(
                    AssertionError("below threshold")
                )
            ),
        )
        try:
            report = self._runner(tmp_path, ["_toy_err"]).execute(echo=lambda *_: None)
            assert not report.ok
            assert report.outcomes[0].status == "failed"
            assert "ValueError" in report.outcomes[0].error

            report = self._runner(tmp_path, ["_toy_badgate"]).execute(
                echo=lambda *_: None
            )
            assert not report.ok
            outcome = report.outcomes[0]
            assert outcome.status == "ok" and outcome.gate_passed is False
            assert "below threshold" in outcome.gate_error
        finally:
            registry._REGISTRY.pop("_toy_err", None)
            registry._REGISTRY.pop("_toy_badgate", None)

    def test_worker_pool_executes_and_resumes(self, toy_specs, tmp_path):
        """The ProcessPoolExecutor path (fork-inherited registry) works too."""
        runner = self._runner(tmp_path, ["_toy_art", "_toy_plain"])
        runner.jobs = 2
        report = runner.execute(echo=lambda *_: None)
        assert report.ok
        assert {o.status for o in report.outcomes} == {"ok"}


# --------------------------------------------------------------------- #
# Crash / resume end-to-end through the CLI
# --------------------------------------------------------------------- #
CRASH_MODULE = '''
"""Registry extras for the fleet crash-resume test (REPRO_REGISTRY_EXTRA)."""
import os
import signal

from repro.harness import registry
from repro.harness.registry import BenchContract
from repro.harness.results import ExperimentResult


def _result(experiment_id, value):
    result = ExperimentResult(experiment_id=experiment_id, description="crash toy")
    result.add_table("summary", [{"value": value}])
    result.metadata["value"] = value
    return result


def _factory(experiment_id, crash=False):
    def run(points, seed=None, **kw):
        if crash:
            marker = os.environ.get("FLEET_CRASH_MARKER")
            if marker and os.path.exists(marker):
                os.remove(marker)
                os.kill(os.getpid(), signal.SIGKILL)
        return _result(experiment_id, (points or 3) * 10 + (seed or 0))

    return run


registry.register(
    "crash_a", "completes before the crash", _factory("crash_a"), tags=("crash",)
)
registry.register(
    "crash_boom",
    "SIGKILLs its own worker while the marker file exists",
    _factory("crash_boom", crash=True),
    tags=("crash",),
    bench=BenchContract(
        params=lambda: {"points": 5},
        artifact="BENCH_crash.json",
        payload=lambda result: {
            "experiment": result.experiment_id,
            "value": result.metadata["value"],
            "rows": result.tables["summary"],
        },
    ),
)
registry.register(
    "crash_z", "queued behind the crash", _factory("crash_z"), tags=("crash",)
)
'''


class TestCrashResume:
    def _fleet(self, tmp_path, name, *extra_args, marker=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(tmp_path)])
        env["REPRO_REGISTRY_EXTRA"] = "fleet_crash_exp"
        if marker is not None:
            env["FLEET_CRASH_MARKER"] = str(marker)
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "fleet",
                "run",
                "--tag",
                "crash",
                "--name",
                name,
                "--jobs",
                "1",
                "--seed",
                "4",
                "--results-dir",
                str(tmp_path / "results"),
                "--artifacts-dir",
                str(tmp_path / f"artifacts-{name}"),
                *extra_args,
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=str(REPO_ROOT),
        )

    def test_sigkill_mid_matrix_then_resume_matches_uninterrupted(self, tmp_path):
        (tmp_path / "fleet_crash_exp.py").write_text(CRASH_MODULE)
        marker = tmp_path / "crash.marker"
        marker.write_text("arm")

        # 1) the armed run: crash_a completes, crash_boom SIGKILLs the only
        #    worker, crash_z never runs -> nonzero exit, partial directory
        first = self._fleet(tmp_path, "crashed", marker=marker)
        assert first.returncode == 1, first.stdout + first.stderr
        assert "worker pool broke" in first.stdout
        assert not marker.exists()  # the crash consumed its arming marker
        matrix_dir = tmp_path / "results" / "crashed"
        a_meta = matrix_dir / "crash_a--seed=4" / "metadata.json"
        assert a_meta.is_file()
        boom_dir = matrix_dir / "crash_boom--seed=4"
        assert boom_dir.exists() and not (boom_dir / "metadata.json").exists()
        assert not (tmp_path / "artifacts-crashed" / "BENCH_crash.json").exists()
        a_mtime = a_meta.stat().st_mtime_ns

        # 2) --resume: the completed run is skipped, the partial and missing
        #    runs execute, the matrix goes green
        second = self._fleet(tmp_path, "crashed", "--resume", marker=None)
        assert second.returncode == 0, second.stdout + second.stderr
        assert "resume: skipping completed crash_a--seed=4" in second.stdout
        assert "partial/stale, re-running" in second.stdout
        assert a_meta.stat().st_mtime_ns == a_mtime
        assert (boom_dir / "metadata.json").is_file()
        resumed_artifact = (
            tmp_path / "artifacts-crashed" / "BENCH_crash.json"
        ).read_text()

        # 3) an uninterrupted run of the same matrix produces byte-identical
        #    consolidated artifacts
        clean = self._fleet(tmp_path, "clean", marker=None)
        assert clean.returncode == 0, clean.stdout + clean.stderr
        clean_artifact = (tmp_path / "artifacts-clean" / "BENCH_crash.json").read_text()
        assert resumed_artifact == clean_artifact

        # the seed is recorded in every run's metadata
        metadata = json.loads(a_meta.read_text())
        assert metadata["seed"] == 4


# --------------------------------------------------------------------- #
# Artifact schema compatibility with the pre-fleet bench scripts
# --------------------------------------------------------------------- #
class TestArtifactSchemas:
    """The consolidated payloads keep the exact fields CI gated on before."""

    def test_throughput_payload_fields(self):
        from repro.harness import gates

        result = ExperimentResult("fig10_batch", "x")
        result.metadata.update(n_points=16000, batch_sizes=[64, 256])
        result.add_table("summary", [])
        assert sorted(gates.payload_fig10_batch(result)) == [
            "batch_sizes",
            "experiment",
            "min_speedup_required_on_synthetic",
            "n_points",
            "rows",
        ]
        assert gates.payload_fig10_batch(result)["experiment"] == "fig10_batch_ingestion"

    def test_query_payload_fields(self):
        from repro.harness import gates

        result = ExperimentResult("query", "x")
        result.metadata.update(n_points=1, n_queries=2, snapshot={"cells": 3})
        result.add_table("summary", [])
        assert sorted(gates.payload_query(result)) == [
            "experiment",
            "min_speedup_required_at_largest_batch",
            "n_points",
            "n_queries",
            "rows",
            "snapshot",
        ]
        assert gates.payload_query(result)["experiment"] == "query_throughput"

    def test_serving_payload_fields(self):
        from repro.harness import gates

        result = ExperimentResult("serve", "x")
        result.metadata.update(n_points=1, query_batch=2, measure_s=0.5)
        result.add_table("summary", [])
        assert sorted(gates.payload_serve(result)) == [
            "experiment",
            "measure_s",
            "min_qps_required",
            "min_scaling_required_at_4_workers",
            "n_points",
            "query_batch",
            "rows",
        ]
        assert gates.payload_serve(result)["experiment"] == "serving"

    def test_memory_payload_fields(self):
        from repro.harness import gates

        result = ExperimentResult("memory", "x")
        result.metadata.update(n_points=1, cap_fraction=0.5)
        result.add_table("summary", [])
        assert sorted(gates.payload_memory(result)) == [
            "cap_fraction",
            "experiment",
            "max_quality_drop",
            "n_points",
            "rows",
        ]
        assert gates.payload_memory(result)["experiment"] == "memory"
