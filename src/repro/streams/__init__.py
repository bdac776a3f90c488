"""Stream abstractions and workload generators.

* :mod:`repro.streams.point` — the timestamped stream point.
* :mod:`repro.streams.stream` — ``DataStream`` containers and helpers for
  converting arrays into rate-controlled streams (Section 3.1).
* :mod:`repro.streams.synthetic` — the SDS and HDS synthetic generators
  (Table 2, Figures 6, 7, 12, 15 and Table 4).
* :mod:`repro.streams.real` — surrogate generators standing in for the
  KDDCUP99, CoverType and PAMAP2 datasets (its docstring gives the
  substitution rationale).
* :mod:`repro.streams.news` — the NADS-like news stream generator used for
  the cluster-evolution use case (Figure 8, Table 3).
* :mod:`repro.streams.drift` — MOA-style concept-drift generators (moving
  RBF kernels, abrupt and gradual mixture drift) used by the ablations.
"""

from repro.streams.point import StreamPoint
from repro.streams.stream import DataStream, stream_from_arrays
from repro.streams.synthetic import (
    HDSGenerator,
    SDSGenerator,
    make_hds_stream,
    make_sds_stream,
)
from repro.streams.real import (
    covertype_surrogate,
    kddcup99_surrogate,
    pamap2_surrogate,
)
from repro.streams.news import NewsStreamGenerator, make_news_stream
from repro.streams.drift import (
    GaussianMixture,
    RBFDriftGenerator,
    abrupt_drift_stream,
    gradual_drift_stream,
)

__all__ = [
    "StreamPoint",
    "DataStream",
    "stream_from_arrays",
    "SDSGenerator",
    "HDSGenerator",
    "make_sds_stream",
    "make_hds_stream",
    "kddcup99_surrogate",
    "covertype_surrogate",
    "pamap2_surrogate",
    "NewsStreamGenerator",
    "make_news_stream",
    "RBFDriftGenerator",
    "GaussianMixture",
    "abrupt_drift_stream",
    "gradual_drift_stream",
]
