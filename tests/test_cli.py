"""Tests for the command-line interface and the experiment registry."""

import inspect

import pytest

from repro.harness import registry
from repro.harness.cli import build_parser, main, run_experiment

#: The experiments the package itself registers beside its drivers.
_BUILTIN = {
    experiment_id: spec
    for experiment_id, spec in registry.all_experiments().items()
    if spec.driver.__module__.startswith("repro.harness.")
}


class TestRegistry:
    def test_cli_table_is_generated_from_the_registry(self, capsys):
        specs = registry.all_experiments()
        assert main(["list"]) == 0
        rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        assert rows == [[eid, spec.description] for eid, spec in specs.items()]

    def test_builtin_specs_are_22_with_unique_artifacts(self):
        assert len(_BUILTIN) == 22
        artifacts = [spec.artifact for spec in _BUILTIN.values() if spec.artifact]
        assert len(artifacts) == len(set(artifacts)) == 5

    @pytest.mark.parametrize("experiment_id", sorted(_BUILTIN))
    def test_every_builtin_spec_is_gated_and_takes_points_and_seed(self, experiment_id):
        spec = _BUILTIN[experiment_id]
        assert spec.gate is not None
        assert (spec.payload is None) == (spec.artifact is None)
        parameters = inspect.signature(spec.driver).parameters
        assert {"n_points", "seed"} <= set(parameters)
        # the driver's signature holds the one default point budget
        assert isinstance(parameters["n_points"].default, int)
        # every benchmark param names a driver parameter; none is swallowed
        assert not any(p.kind is p.VAR_KEYWORD for p in parameters.values())
        assert set(spec.params()) - {"points"} <= set(parameters)

    def test_run_passes_points_and_seed_only_when_given(self):
        calls = []

        def driver(n_points=3, seed=None, **kw):
            calls.append({"n_points": n_points, "seed": seed, **kw})

        spec = registry.ExperimentSpec("_test_run", "temporary", driver)
        spec.run()
        spec.run(points=7, seed=2, scale=5)
        assert calls == [
            {"n_points": 3, "seed": None},
            {"n_points": 7, "seed": 2, "scale": 5},
        ]

    def test_run_rejects_a_point_budget_given_twice(self):
        spec = registry.ExperimentSpec("_test_run", "temporary", lambda **kw: kw)
        assert spec.run(n_points=4) == {"n_points": 4}
        with pytest.raises(TypeError):
            spec.run(points=4, n_points=5)

    def test_extension_experiments_are_registered(self):
        assert {"serve", "memory", "query", "fig10_batch"} <= set(
            registry.all_experiments()
        )

    def test_get_experiment_unknown_id_lists_known_ids(self):
        with pytest.raises(KeyError, match="memory"):
            registry.get_experiment("nope")

    def test_register_makes_an_experiment_runnable_everywhere(self):
        sentinel = object()
        registry.register("_test_tmp", "temporary", lambda: sentinel)
        try:
            assert registry.get_experiment("_test_tmp").run() is sentinel
            assert run_experiment("_test_tmp") is sentinel
            assert build_parser().parse_args(["run", "_test_tmp"]).experiment == "_test_tmp"
        finally:
            registry._REGISTRY.pop("_test_tmp", None)


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses_options(self):
        args = build_parser().parse_args(["run", "fig15", "--points", "500"])
        assert args.command == "run"
        assert args.experiment == "fig15"
        assert args.points == 500

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_every_paper_artifact_has_an_entry(self):
        assert {"table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                "fig13", "fig14", "fig15", "fig16", "fig17", "ablation"} <= set(
            registry.all_experiments()
        )


class TestExecution:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in registry.all_experiments():
            assert experiment_id in output

    def test_run_experiment_by_id(self):
        result = run_experiment("table2", points=300)
        assert result.experiment_id == "table2"

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("nope")

    def test_run_command_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = main(["run", "fig15", "--points", "4000", "--output", str(target)])
        assert code == 0
        assert target.exists()
        assert "dynamic" in target.read_text()

    def test_run_command_prints_to_stdout(self, capsys):
        assert main(["run", "table2", "--points", "300"]) == 0
        assert "Datasets" in capsys.readouterr().out


class TestFleetCommand:
    def test_fleet_run_parses_options(self):
        args = build_parser().parse_args(
            [
                "fleet", "run", "--tag", "bench", "--id", "query", "--points",
                "500", "--seed", "7", "--jobs", "2", "--resume", "--no-gate",
            ]
        )
        assert args.command == "fleet" and args.fleet_command == "run"
        assert args.tag == ["bench"] and args.ids == ["query"]
        assert args.points == 500 and args.seed == 7 and args.jobs == 2
        assert args.resume and args.no_gate

    def test_fleet_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_fleet_list_shows_planned_runs(self, capsys):
        assert main(["fleet", "list", "--tag", "bench", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "matrix bench: 5 runs" in output
        assert "query--seed=3" in output
        assert "BENCH_query.json" in output

    def test_fleet_list_empty_filter_is_an_error_on_run(self, capsys):
        assert main(["fleet", "run", "--tag", "no-such-tag"]) == 1
        assert "matrix is empty" in capsys.readouterr().out

    def test_fleet_run_executes_a_registered_toy(self, tmp_path, capsys):
        from repro.harness.results import ExperimentResult

        def driver(n_points=3, seed=None):
            result = ExperimentResult("_cli_toy", "toy")
            result.metadata["seed"] = seed
            return result

        registry.register("_cli_toy", "toy", driver)
        try:
            code = main(
                [
                    "fleet", "run", "--id", "_cli_toy", "--seed", "9",
                    "--jobs", "0", "--name", "clitoy",
                    "--results-dir", str(tmp_path / "results"),
                    "--artifacts-dir", str(tmp_path / "artifacts"),
                ]
            )
            assert code == 0
            assert "_cli_toy--seed=9" in capsys.readouterr().out
            assert (
                tmp_path / "results" / "clitoy" / "_cli_toy--seed=9" / "metadata.json"
            ).is_file()
        finally:
            registry._REGISTRY.pop("_cli_toy", None)
