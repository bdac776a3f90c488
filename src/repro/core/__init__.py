"""Core EDMStream implementation.

The sub-modules follow the structure of the paper:

* :mod:`repro.core.decay` — the exponential decay model (Section 3.1).
* :mod:`repro.core.soa` / :mod:`repro.core.cellstore` — the
  structure-of-arrays arena in which every cluster-cell (Definition 4) is
  one row, created by ``CellArrays.create`` and addressed by id, and the
  population views over it.
* :mod:`repro.core.cell` — the read-only view of one cell.
* :mod:`repro.core.dptree` — the Dependency Tree (Section 2.2): the active
  population, whose links are the arena's ``dep``/``delta`` columns, with
  MSDSubTree extraction by pointer jumping (Definition 2) and the
  dependency rules both engines share.
* :mod:`repro.core.reservoir` — the outlier reservoir: the inactive
  population (Sections 4.1, 4.3 and 4.4).
* :mod:`repro.core.filters` — counters for the density filter (Theorem 1)
  and the triangle-inequality filter (Theorem 2) that skip dependency
  updates.
* :mod:`repro.core.evolution` — cluster-evolution tracking (Table 1).
* :mod:`repro.core.adaptive_tau` — adaptive tuning of τ (Section 5).
* :mod:`repro.core.edmstream` — the online EDMStream algorithm (Section 4).
* :mod:`repro.core.persistence` — saving/restoring model state as JSON.
"""

from repro.core.adaptive_tau import TauOptimizer
from repro.core.batch import BatchIngestor
from repro.core.cell import ClusterCell
from repro.core.config import EDMStreamConfig
from repro.core.decay import DecayModel
from repro.core.dptree import DPTree
from repro.core.edmstream import EDMStream
from repro.core.evolution import ClusterEvent, EvolutionTracker, EvolutionType
from repro.core.filters import FilterStatistics
from repro.core.reservoir import OutlierReservoir
from repro.core.persistence import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)

__all__ = [
    "BatchIngestor",
    "DecayModel",
    "ClusterCell",
    "DPTree",
    "OutlierReservoir",
    "FilterStatistics",
    "EvolutionTracker",
    "EvolutionType",
    "ClusterEvent",
    "TauOptimizer",
    "EDMStreamConfig",
    "EDMStream",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]
