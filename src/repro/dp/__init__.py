"""The decision graph of Density Peaks clustering (Rodriguez & Laio, Science 2014).

Density Peaks is the batch algorithm EDMStream turns into a streaming
method (Section 2 of the paper).  :class:`DecisionGraph` holds the (ρ, δ)
pairs of the active cluster-cells (:meth:`repro.core.EDMStream.decision_graph`)
and renders them as text, with τ-based peak selection.
"""

from repro.dp.decision_graph import DecisionGraph

__all__ = ["DecisionGraph"]
