"""Dependency-update filtering (Section 4.2, Theorems 1 and 2).

When a cluster-cell ``c'`` absorbs a point, in principle every other cell's
dependency could change.  The two theorems give cheap sufficient conditions
under which a cell ``c``'s dependency provably does not change, so the
update can be skipped:

* **Density filter (Theorem 1)** — if ``ρ_c < ρ_c'`` before the absorption,
  or ``ρ_c ≥ ρ_c'`` after it, the set of higher-density cells seen by ``c``
  is unchanged with respect to ``c'``, hence its dependency is unchanged.
* **Triangle-inequality filter (Theorem 2)** — if
  ``| |p, s_c| − |p, s_c'| | > δ_c`` then ``|s_c, s_c'| > δ_c`` and ``c'``
  cannot replace ``c``'s current dependency.  The two point-to-seed
  distances are already known from the assignment step, so this check is
  almost free.

The per-point path (``EDMStream._update_dependencies``) applies both
checks inline.  Theorem 1 is a key range, not a mask: the DP-Tree keeps its
cells sorted by a time-invariant density key, so the cells the absorber
newly dominates are one band of that order, found with two bisects on the
keys every other decision reads
(:meth:`~repro.core.dptree.DPTree.theorem_one`); the triangle filter then
runs over that band only.  With the density filter off every other active
cell is a candidate, as Figure 11's unfiltered variants need.  The
micro-batch engine (:mod:`repro.core.batch`) replaces both checks with one
:meth:`~repro.core.dptree.DPTree.relink` of its dirty cells per chunk.
:class:`FilterStatistics` counts how many updates each filter avoided,
which feeds the ablation experiment of Figure 11.  Its
``distance_computations`` and ``dependency_changes`` also count the
relinks of both engines: every distance a relink block holds, and every
``(dep, δ)`` pair that changes, a link cut for want of a dominator
included.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FilterStatistics:
    """Counters describing the work done (and avoided) during dependency updates."""

    candidates: int = 0
    density_filtered: int = 0
    triangle_filtered: int = 0
    distance_computations: int = 0
    dependency_changes: int = 0

    @property
    def filtered(self) -> int:
        """Total number of candidate updates skipped by either filter."""
        return self.density_filtered + self.triangle_filtered

    @property
    def filter_rate(self) -> float:
        """Fraction of candidate updates that were skipped (0 when no candidates)."""
        if self.candidates == 0:
            return 0.0
        return self.filtered / self.candidates

    def as_dict(self) -> dict:
        """Plain-dict view for reporting."""
        return {
            "candidates": self.candidates,
            "density_filtered": self.density_filtered,
            "triangle_filtered": self.triangle_filtered,
            "distance_computations": self.distance_computations,
            "dependency_changes": self.dependency_changes,
            "filter_rate": self.filter_rate,
        }
