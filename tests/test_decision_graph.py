"""Tests for the (ρ, δ) decision graph of Density Peaks clustering (Figure 2b)."""

import pytest

from repro.dp import DecisionGraph


class TestDecisionGraph:
    def test_peaks_selection(self):
        graph = DecisionGraph(rho=[10.0, 8.0, 1.0], delta=[5.0, 4.0, 0.1])
        assert graph.peaks(xi=0.5, tau=1.0) == [0, 1]
        assert graph.peaks(xi=0.5, tau=4.5) == [0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionGraph(rho=[1.0], delta=[1.0, 2.0])

    def test_render_produces_ascii(self):
        graph = DecisionGraph(rho=[10.0, 8.0, 1.0], delta=[5.0, 4.0, 0.1])
        art = graph.render(width=30, height=10, tau=2.0)
        assert "*" in art and "-" in art and "rho" in art

    def test_render_empty(self):
        assert "empty" in DecisionGraph(rho=[], delta=[]).render()
