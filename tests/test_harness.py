"""Tests for the benchmark harness (results, reporting, runner)."""

import pytest

from repro import EDMStream
from repro.baselines import DenStream
from repro.harness import (
    ExperimentResult,
    RunMetrics,
    SeriesResult,
    StreamRunner,
    format_comparison,
    format_series,
    format_table,
)


class TestSeriesResult:
    def test_append_and_stats(self):
        series = SeriesResult(name="test")
        series.append(1, 10.0)
        series.append(2, 20.0)
        assert len(series) == 2
        assert series.mean() == 15.0
        assert series.last() == 20.0

    def test_empty_series(self):
        series = SeriesResult(name="empty")
        assert series.mean() == 0.0
        assert series.last() is None


class TestRunMetrics:
    def test_series_extraction_and_means(self):
        metrics = RunMetrics(algorithm="A", stream_name="S")
        metrics.checkpoints = [100, 200]
        metrics.response_time_us = [10.0, 20.0]
        metrics.throughput = [1000.0, 2000.0]
        metrics.cmm = [0.9, 0.8]
        series = metrics.series("response_time_us", "us")
        assert series.x == [100.0, 200.0]
        assert metrics.mean_response_time_us == 15.0
        assert metrics.mean_throughput == 1500.0
        assert metrics.mean_cmm == pytest.approx(0.85)

    def test_means_of_empty_metrics_are_zero(self):
        metrics = RunMetrics(algorithm="A", stream_name="S")
        assert metrics.mean_response_time_us == 0.0
        assert metrics.mean_throughput == 0.0
        assert metrics.mean_cmm == 0.0


class TestReporting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.00001}])
        assert "a" in text and "b" in text
        assert "10" in text
        assert "1e-05" in text

    def test_format_empty_table(self):
        assert "empty" in format_table([])

    def test_format_series_subsamples(self):
        series = SeriesResult(name="s")
        for i in range(100):
            series.append(i, i * 2.0)
        text = format_series(series, max_points=10)
        assert text.count("\n") < 20

    def test_format_comparison(self):
        a = SeriesResult(name="A", x=[1, 2], y=[10, 20], x_label="t")
        b = SeriesResult(name="B", x=[1, 2], y=[30, 40], x_label="t")
        text = format_comparison({"A": a, "B": b})
        assert "A" in text and "B" in text

    def test_experiment_result_to_text(self):
        result = ExperimentResult(experiment_id="x", description="demo")
        result.add_table("t", [{"k": 1}])
        result.add_series("s", SeriesResult(name="s", x=[1], y=[2]))
        text = result.to_text()
        assert "demo" in text and "table: t" in text and "series: s" in text


class TestStreamRunner:
    def test_runs_edmstream_and_collects_metrics(self, two_blob_stream):
        runner = StreamRunner(checkpoint_every=50, quality_window=50)
        model = EDMStream(radius=0.5, init_size=30, beta=0.001)
        metrics = runner.run(model, two_blob_stream)
        assert metrics.n_points == len(two_blob_stream)
        assert len(metrics.checkpoints) == len(metrics.response_time_us)
        assert len(metrics.cmm) == len(metrics.checkpoints)
        assert all(0.0 <= v <= 1.0 for v in metrics.cmm)
        assert metrics.total_seconds > 0

    def test_runs_two_phase_baseline(self, two_blob_stream):
        runner = StreamRunner(checkpoint_every=100, evaluate_quality=False)
        metrics = runner.run(DenStream(eps=0.5, mu=5.0, beta=0.3), two_blob_stream)
        assert metrics.algorithm == "DenStream"
        assert metrics.cmm == []
        assert all(v > 0 for v in metrics.response_time_us)

    def test_final_partial_checkpoint_is_recorded(self, two_blob_stream):
        runner = StreamRunner(checkpoint_every=150, evaluate_quality=False)
        metrics = runner.run(EDMStream(radius=0.5, init_size=30), two_blob_stream)
        assert metrics.checkpoints[-1] == len(two_blob_stream)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StreamRunner(checkpoint_every=0)
        with pytest.raises(ValueError):
            StreamRunner(quality_window=0)
