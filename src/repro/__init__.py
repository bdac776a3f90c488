"""EDMStream reproduction: stream clustering by exploring the evolution of density mountain.

This package is a from-scratch reproduction of the VLDB 2017 paper
*Clustering Stream Data by Exploring the Evolution of Density Mountain*
(Gong, Zhang, Yu), including the EDMStream algorithm itself, the
stream-clustering baselines it is compared against (DenStream, D-Stream,
DBSTREAM, MR-Stream, CluStream), synthetic and surrogate workload
generators, the CMM quality metric and a benchmark harness that regenerates
every table and figure of the paper's evaluation.

Quickstart (ingest, then serve from an immutable snapshot)::

    from repro import EDMStream
    from repro.streams import SDSGenerator

    stream = SDSGenerator(seed=7).generate()
    model = EDMStream(radius=0.3, beta=0.001)
    model.learn_many(stream)                      # micro-batched ingestion
    snapshot = model.request_clustering()         # immutable serving view
    print(snapshot.n_clusters, "clusters at version", snapshot.version)
    labels = snapshot.predict_many([p.values for p in stream.points[:100]])
"""

from repro.api import ClusterSnapshot, SnapshotPublisher, StreamClusterer
from repro.core import (
    BatchIngestor,
    ClusterCell,
    ClusterEvent,
    DecayModel,
    DPTree,
    EDMStream,
    EDMStreamConfig,
    EvolutionTracker,
    EvolutionType,
    OutlierReservoir,
)

__version__ = "1.1.0"

__all__ = [
    "BatchIngestor",
    "EDMStream",
    "EDMStreamConfig",
    "StreamClusterer",
    "ClusterSnapshot",
    "SnapshotPublisher",
    "DecayModel",
    "ClusterCell",
    "DPTree",
    "OutlierReservoir",
    "EvolutionTracker",
    "EvolutionType",
    "ClusterEvent",
    "__version__",
]
