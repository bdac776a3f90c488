"""Smoke and shape tests for the ablation experiment drivers (small sizes)."""


from repro.harness import ablations


class TestDecayAblation:
    def test_summary_has_one_row_per_half_life(self):
        result = ablations.experiment_decay_ablation(
            n_points=1500, half_lives=(1.0, 1e9)
        )
        rows = result.tables["summary"]
        assert len(rows) == 2
        assert {row["variant"] for row in rows} == {"half-life 1s", "no decay"}
        assert all(0.0 <= row["mean_cmm"] <= 1.0 for row in rows)
        assert all(row["decay_lambda"] > 0 for row in rows)

    def test_series_registered_per_variant(self):
        result = ablations.experiment_decay_ablation(n_points=1200, half_lives=(2.0,))
        assert "half-life 2s" in result.series


class TestBetaAblation:
    def test_threshold_monotone_in_beta(self):
        result = ablations.experiment_beta_ablation(
            n_points=1500, betas=(0.001, 0.01, 0.05)
        )
        rows = result.tables["summary"]
        thresholds = [row["active_threshold"] for row in rows]
        assert thresholds == sorted(thresholds)
        assert rows[0]["active_cells"] >= rows[-1]["active_cells"]

    def test_cell_counts_reported(self):
        result = ablations.experiment_beta_ablation(n_points=1200, betas=(0.0021,))
        row = result.tables["summary"][0]
        assert row["active_cells"] + row["inactive_cells"] > 0


class TestTrackingComparison:
    def test_all_trackers_report_counts(self):
        result = ablations.experiment_tracking_comparison(
            n_points=4000, snapshot_every=1.0, window_size=300
        )
        counts = {row["tracker"]: row for row in result.tables["event_counts"]}
        assert set(counts) == {"EDMStream (online)", "MONIC (offline)", "MEC (offline)"}
        assert counts["EDMStream (online)"]["emerge"] >= 1
        agreement = result.tables["agreement_vs_online"]
        assert {row["tracker"] for row in agreement} == {"MONIC", "MEC"}
        assert all(0.0 <= row["recall"] <= 1.0 for row in agreement)
        assert all(0.0 <= row["precision"] <= 1.0 for row in agreement)

    def test_cost_table_present(self):
        result = ablations.experiment_tracking_comparison(
            n_points=3000, snapshot_every=1.0, window_size=200
        )
        cost = {row["component"]: row["seconds"] for row in result.tables["cost"]}
        assert len(cost) == 2
        assert all(value >= 0 for value in cost.values())


class TestCFTreeVsDPTree:
    def test_both_algorithms_reported(self):
        result = ablations.experiment_cftree_vs_dptree(n_points=2000)
        rows = {row["algorithm"]: row for row in result.tables["summary"]}
        assert set(rows) == {"EDMStream", "BIRCH"}
        assert rows["BIRCH"]["tree_height"] >= 1
        assert rows["BIRCH"]["summaries"] >= 1
        assert rows["EDMStream"]["summaries"] >= 1
        assert all(0.0 <= row["mean_cmm"] <= 1.0 for row in rows.values())

    def test_series_registered(self):
        result = ablations.experiment_cftree_vs_dptree(n_points=1500)
        assert "cmm/EDMStream" in result.series
        assert "response/BIRCH" in result.series
