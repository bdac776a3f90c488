"""Cluster-quality evaluation.

* :mod:`repro.evaluation.cmm` — the Cluster Mapping Measure (CMM) of Kremer
  et al. (KDD 2011), the external criterion used throughout Section 6.4: it
  weights objects by their freshness and penalises missed objects, misplaced
  objects and noise inclusion.
* :mod:`repro.evaluation.external` — classical external metrics (purity,
  F-measure, Rand index, adjusted Rand index, normalised mutual information)
  used as supporting measurements and in tests.
"""

from repro.evaluation.cmm import CMM, CMMResult
from repro.evaluation.external import (
    adjusted_rand_index,
    contingency_table,
    f_measure,
    normalized_mutual_information,
    purity,
    rand_index,
)

__all__ = [
    "CMM",
    "CMMResult",
    "purity",
    "f_measure",
    "rand_index",
    "adjusted_rand_index",
    "normalized_mutual_information",
    "contingency_table",
]
