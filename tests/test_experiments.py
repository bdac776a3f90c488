"""Smoke tests for the experiment drivers (tiny workloads).

Each driver is exercised with a workload small enough to run in a few
seconds; the full-size runs live in ``benchmarks/``.  The assertions check
the *structure* of each result (the right tables and series exist) and the
headline *shape* properties that must hold even at small scale.
"""

import pytest

from repro.harness import experiments, scenarios


class TestFactories:
    def test_make_real_stream_names(self):
        for name in ("KDDCUP99", "CoverType", "PAMAP2"):
            stream = experiments.make_real_stream(name, n_points=300)
            assert len(stream) == 300
        with pytest.raises(KeyError):
            experiments.make_real_stream("MNIST", n_points=10)

    def test_choose_radius_is_positive_and_monotone_in_percentile(self):
        stream = experiments.make_real_stream("CoverType", n_points=500)
        small = experiments.choose_radius(stream, percentile=0.5)
        large = experiments.choose_radius(stream, percentile=2.0)
        assert 0 < small <= large

    def test_default_algorithms_builds_requested_set(self):
        stream = experiments.make_real_stream("PAMAP2", n_points=400)
        algorithms = experiments.default_algorithms(
            stream, include=("EDMStream", "DenStream", "CluStream", "Periodic-DP")
        )
        assert set(algorithms) == {"EDMStream", "DenStream", "CluStream", "Periodic-DP"}
        with pytest.raises(KeyError):
            experiments.default_algorithms(stream, include=("NoSuchAlgo",))


class TestEfficiencyExperiments:
    def test_table2_lists_paper_and_surrogates(self):
        result = experiments.experiment_table2(n_points=300)
        assert {row["name"] for row in result.tables["paper"]} >= {"SDS", "KDDCUP99"}
        assert len(result.tables["surrogates"]) == 5

    def test_response_time_experiment_structure(self):
        result = experiments.experiment_response_time(
            datasets=("PAMAP2",),
            algorithms=("EDMStream", "DenStream"),
            n_points=1200,
            checkpoint_every=400,
        )
        assert result.experiment_id == "fig9"
        assert {row["algorithm"] for row in result.tables["summary"]} == {"EDMStream", "DenStream"}
        assert "PAMAP2/EDMStream" in result.series

    def test_throughput_experiment_structure(self):
        result = experiments.experiment_throughput(
            datasets=("PAMAP2",),
            algorithms=("EDMStream", "D-Stream"),
            n_points=1200,
            checkpoint_every=400,
        )
        assert result.experiment_id == "fig10"
        assert all(row["mean_throughput"] > 0 for row in result.tables["summary"])

    def test_filtering_experiment_shows_filters_cut_work(self):
        result = experiments.experiment_filtering(
            datasets=("PAMAP2",), n_points=1500, checkpoint_every=500
        )
        rows = {row["variant"]: row for row in result.tables["summary"]}
        assert set(rows) == {"wf", "df", "df+tif"}
        assert rows["df"]["distance_computations"] <= rows["wf"]["distance_computations"]
        assert rows["df+tif"]["distance_computations"] <= rows["df"]["distance_computations"]

    def test_dimensions_experiment_structure(self):
        result = experiments.experiment_dimensions(
            dimensions=(10, 30),
            algorithms=("EDMStream",),
            n_points=800,
            checkpoint_every=400,
        )
        series = result.series["EDMStream"]
        assert series.x == [10.0, 30.0]
        assert all(y > 0 for y in series.y)

    def test_quality_experiment_structure(self):
        result = experiments.experiment_quality(
            datasets=("PAMAP2",),
            algorithms=("EDMStream",),
            n_points=1500,
            checkpoint_every=500,
            quality_window=200,
        )
        row = result.tables["summary"][0]
        assert 0.0 <= row["mean_cmm"] <= 1.0

    def test_stream_rate_experiment_structure(self):
        result = experiments.experiment_stream_rate(
            rates=(1000.0, 5000.0), dataset="PAMAP2", n_points=1500,
            checkpoint_every=500, quality_window=200,
        )
        assert len(result.tables["summary"]) == 2

    def test_reservoir_experiment_respects_upper_bound(self):
        result = experiments.experiment_reservoir(
            rates=(1000.0,), datasets=("PAMAP2",), n_points=2000
        )
        row = result.tables["summary"][0]
        assert row["within_bound"]

    def test_radius_experiment_structure(self):
        result = experiments.experiment_radius(
            percentiles=(1.0, 2.0), dataset="PAMAP2", n_points=1500,
            checkpoint_every=500, quality_window=200,
        )
        assert len(result.tables["summary"]) == 2
        radii = [row["radius"] for row in result.tables["summary"]]
        assert radii[0] <= radii[1]

    def test_dptree_ablation_structure(self):
        result = experiments.experiment_dptree_ablation(
            dataset="PAMAP2", n_points=1500, checkpoint_every=500
        )
        names = {row["algorithm"] for row in result.tables["summary"]}
        assert names == {"EDMStream", "Periodic-DP"}


class TestScenarioExperiments:
    def test_sds_evolution_detects_merge(self):
        result = scenarios.experiment_evolution_sds(n_points=10000)
        counts = result.tables["event_counts"][0]
        assert counts["merge"] >= 1
        series = result.series["clusters_over_time"]
        assert max(series.y) >= 2

    def test_news_evolution_structure(self):
        result = scenarios.experiment_news_evolution(n_points=1500)
        assert "observed_events" in result.tables
        assert len(result.tables["expected_events"]) == 4

    def test_adaptive_tau_dynamic_tracks_more_clusters_than_static(self):
        result = scenarios.experiment_adaptive_tau(n_points=8000, static_tau=5.0,
                                                   seconds_reported=8)
        rows = result.tables["table4"]
        dynamic_total = sum(row["dynamic tau"] for row in rows)
        static_total = sum(row["static tau"] for row in rows)
        assert dynamic_total >= static_total
