"""The decision graph of Density Peaks clustering (Figure 2b / Figure 15).

A decision graph plots each point (or, for EDMStream, each cluster-cell)
with its local density ρ on the x-axis and its dependent distance δ on the
y-axis.  Cluster centres are the points in the top-right region (large ρ and
large δ).  In the original DP algorithm the user picks them interactively;
EDMStream uses the graph once at initialisation to learn the user's
granularity preference α (Section 5).

This module renders the graph as text (the repository has no plotting
dependency) and selects its peaks by the ξ/τ thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class DecisionGraph:
    """A (ρ, δ) decision graph with simple analysis helpers."""

    rho: List[float]
    delta: List[float]
    ids: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if len(self.rho) != len(self.delta):
            raise ValueError(
                f"rho and delta must have the same length, got {len(self.rho)} and {len(self.delta)}"
            )
        if self.ids is not None and len(self.ids) != len(self.rho):
            raise ValueError("ids must have the same length as rho/delta")

    def __len__(self) -> int:
        return len(self.rho)

    def peaks(self, xi: float, tau: float) -> List[int]:
        """Indices of the points with ρ > ξ and δ > τ (the cluster centres)."""
        return [
            i
            for i in range(len(self.rho))
            if self.rho[i] > xi and self.delta[i] > tau
        ]

    def render(self, width: int = 60, height: int = 20, tau: Optional[float] = None) -> str:
        """Render the decision graph as ASCII art.

        Points are plotted as ``*``; when ``tau`` is given, a horizontal line
        of ``-`` marks the threshold, matching the τ lines of Figure 15.
        """
        if not self.rho:
            return "(empty decision graph)"
        finite_delta = [d for d in self.delta if d != float("inf")]
        max_delta = max(finite_delta) if finite_delta else 1.0
        max_rho = max(self.rho) or 1.0
        grid = [[" " for _ in range(width)] for _ in range(height)]

        def column(value: float, maximum: float) -> int:
            return min(width - 1, int(value / maximum * (width - 1))) if maximum > 0 else 0

        def row(value: float, maximum: float) -> int:
            scaled = min(value, maximum)
            return height - 1 - (
                min(height - 1, int(scaled / maximum * (height - 1))) if maximum > 0 else 0
            )

        if tau is not None and max_delta > 0:
            tau_row = row(tau, max_delta)
            for c in range(width):
                grid[tau_row][c] = "-"
        for r_value, d_value in zip(self.rho, self.delta):
            d_plot = min(d_value, max_delta)
            grid[row(d_plot, max_delta)][column(r_value, max_rho)] = "*"
        lines = ["delta"]
        lines.extend("|" + "".join(r) for r in grid)
        lines.append("+" + "-" * width + "> rho")
        return "\n".join(lines)
