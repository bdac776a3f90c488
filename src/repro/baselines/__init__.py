"""Stream-clustering baselines and batch clustering substrates.

The paper compares EDMStream against four density-based stream clusterers —
DenStream, D-Stream, DBSTREAM and MR-Stream — all of which follow the
two-phase design: an *online* component summarises the stream into
micro-clusters or grid cells, and an *offline* component periodically runs a
batch clustering algorithm over the summaries to produce the macro clusters.
CluStream (micro-clusters + offline k-means) is included as a related-work
extension.

The batch substrates those offline components need — DBSCAN and k-means —
are implemented here as well and are also usable standalone.  BIRCH (the
CF-Tree ancestor contrasted against the DP-Tree in Section 7) is included
for the CF-Tree ablation.
"""

from repro.api import StreamClusterer
from repro.baselines.dbscan import DBSCAN
from repro.baselines.kmeans import KMeans
from repro.baselines.denstream import DenStream
from repro.baselines.dstream import DStream
from repro.baselines.dbstream import DBStream
from repro.baselines.mrstream import MRStream
from repro.baselines.clustream import CluStream
from repro.baselines.naive_dp import PeriodicDPStream
from repro.baselines.birch import Birch, CFTree, ClusteringFeature

__all__ = [
    "StreamClusterer",
    "DBSCAN",
    "KMeans",
    "DenStream",
    "DStream",
    "DBStream",
    "MRStream",
    "CluStream",
    "PeriodicDPStream",
    "Birch",
    "CFTree",
    "ClusteringFeature",
]
