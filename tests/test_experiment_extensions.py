"""Tests for the experiment-driver extensions (real-time throughput, radius
summary columns, and the new CLI ablation entries)."""


from repro.harness import experiments, registry
from repro.harness.cli import run_experiment


class TestThroughputDriver:
    def test_summary_reports_realtime_and_amortised_throughput(self):
        result = experiments.experiment_throughput(
            datasets=("KDDCUP99",),
            algorithms=("EDMStream", "D-Stream"),
            n_points=1500,
            checkpoint_every=500,
        )
        rows = result.tables["summary"]
        assert {row["algorithm"] for row in rows} == {"EDMStream", "D-Stream"}
        for row in rows:
            assert row["mean_throughput"] > 0
            assert row["mean_amortised_throughput"] > 0

    def test_realtime_and_amortised_series_registered(self):
        result = experiments.experiment_throughput(
            datasets=("KDDCUP99",),
            algorithms=("EDMStream",),
            n_points=1200,
            checkpoint_every=400,
        )
        assert "KDDCUP99/EDMStream" in result.series
        assert "KDDCUP99/EDMStream/amortised" in result.series
        realtime = result.series["KDDCUP99/EDMStream"]
        assert all(y > 0 for y in realtime.y)

    def test_speedups_metadata_present(self):
        result = experiments.experiment_throughput(
            datasets=("KDDCUP99",),
            algorithms=("EDMStream", "D-Stream"),
            n_points=1200,
            checkpoint_every=400,
        )
        speedups = result.metadata["speedups"]
        assert len(speedups) == 1
        assert speedups[0]["dataset"] == "KDDCUP99"


class TestRadiusDriver:
    def test_summary_reports_total_cells(self):
        result = experiments.experiment_radius(
            percentiles=(0.5, 2.0),
            dataset="PAMAP2",
            n_points=1500,
            checkpoint_every=500,
            quality_window=200,
        )
        rows = result.tables["summary"]
        assert len(rows) == 2
        for row in rows:
            assert row["total_cells"] >= row["active_cells"]
            assert row["total_cells"] > 0


class TestCLIRegistry:
    def test_new_ablation_entries_registered(self):
        expected = {
            "ablation_decay",
            "ablation_beta",
            "ablation_tracking",
            "ablation_cftree",
        }
        assert expected <= set(registry.all_experiments())

    def test_run_experiment_resolves_new_ids(self):
        result = run_experiment("ablation_beta", points=200)
        assert result.experiment_id == "ablation_beta"
        assert "summary" in result.tables


class TestMemoryDriver:
    def test_memory_experiment_reports_cap_and_quality(self):
        result = experiments.experiment_memory(
            datasets=("SDS",), n_points=6000, eval_every=2000, quality_window=300
        )
        rows = result.tables["summary"]
        assert [row["mode"] for row in rows] == ["exact", "capped"]
        exact, capped = rows
        assert capped["memory_cap_bytes"] >= 32_768
        assert capped["evictions"] > 0
        assert 0.0 <= capped["cmm_drop"] <= 1.0
        assert 0.0 <= capped["purity_drop"] <= 1.0
        assert "SDS/exact" in result.series and "SDS/capped" in result.series
        assert result.metadata["cap_fraction"] == 0.5

    def test_batch_throughput_rows_report_memory_columns(self):
        result = experiments.experiment_batch_throughput(
            n_points=2000, datasets=("SDS",), batch_sizes=(256,)
        )
        for row in result.tables["summary"]:
            assert row["cell_state_bytes"] > 0
            assert row["arena_bytes"] > 0
