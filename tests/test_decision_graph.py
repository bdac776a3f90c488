"""Tests for the (ρ, δ) decision graph of Density Peaks clustering (Figure 2b)."""

import pytest

from repro.dp import DecisionGraph


class TestDecisionGraph:
    def test_peaks_selection(self):
        graph = DecisionGraph(rho=[10.0, 8.0, 1.0], delta=[5.0, 4.0, 0.1])
        assert graph.peaks(xi=0.5, tau=1.0) == [0, 1]
        assert graph.n_peaks(xi=0.5, tau=4.5) == 1

    def test_gamma_ranking(self):
        graph = DecisionGraph(rho=[10.0, 2.0, 8.0], delta=[5.0, 0.1, 4.0])
        assert graph.gamma_ranking()[0] == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionGraph(rho=[1.0], delta=[1.0, 2.0])

    def test_render_produces_ascii(self):
        graph = DecisionGraph(rho=[10.0, 8.0, 1.0], delta=[5.0, 4.0, 0.1])
        art = graph.render(width=30, height=10, tau=2.0)
        assert "*" in art and "-" in art and "rho" in art

    def test_render_empty(self):
        assert "empty" in DecisionGraph(rho=[], delta=[]).render()

    def test_suggest_tau_splits_the_largest_relative_delta_gap(self):
        graph = DecisionGraph(
            rho=[9.0, 8.0, 7.0, 2.0, 1.0], delta=[float("inf"), 5.0, 4.0, 0.2, 0.1]
        )
        assert graph.suggest_tau() == pytest.approx(2.1)
        assert graph.n_peaks(xi=0.0, tau=graph.suggest_tau()) == 3
