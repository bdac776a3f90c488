"""Benchmark harness.

* :mod:`repro.harness.results` — result containers (series, tables, runs).
* :mod:`repro.harness.reporting` — plain-text rendering of tables and series
  (the repository deliberately has no plotting dependency; every figure is
  reproduced as a printed series with the same axes as the paper).
* :mod:`repro.harness.runner` — drives any stream clusterer over a stream
  while measuring response time, throughput and quality.
* :mod:`repro.harness.experiments`, :mod:`repro.harness.scenarios` and
  :mod:`repro.harness.ablations` — one driver per table/figure of the
  paper's evaluation (Section 6) or ablation.  A ``register(...)`` call
  beside each driver declares it to :mod:`repro.harness.registry` with its
  tags, benchmark parameters, artifact and gate;
  ``python -m repro fleet run --id <id>`` runs it as a benchmark.
"""

from repro.harness.results import ExperimentResult, RunMetrics, SeriesResult
from repro.harness.reporting import format_comparison, format_series, format_table
from repro.harness.runner import StreamRunner
from repro.harness import ablations, experiments, scenarios

__all__ = [
    "SeriesResult",
    "RunMetrics",
    "ExperimentResult",
    "StreamRunner",
    "format_table",
    "format_series",
    "format_comparison",
    "experiments",
    "scenarios",
    "ablations",
]
