"""Streaming radiation-event detection and burst-adaptive decoding.

The detect → adapt → recover axis on top of the injection engine:

* :class:`PackedSyndromes` — frame-native (bit-packed) detection-event
  streams; popcount/bit-sliced reductions, no unpack to uint8.
* :class:`StreamingDetector` / :class:`DetectorConfig` /
  :class:`DetectionReport` — per-shot CUSUM change-point detection of
  strike bursts, plus :func:`roc_auc`.
* :func:`estimate_cluster` / :class:`StrikeCluster` — strike epicenter
  and blast-radius localisation on the plaquette graph.
* :class:`RecoveryPolicy` / :class:`BurstAdaptiveDecoder` /
  :func:`reweight_graph` — act on detections before decoding
  (erasure-style reweighting or window discard), threaded through
  ``InjectionTask.recovery``, sweep specs, the campaign engine and the
  ``repro detect`` / ``repro campaign --recovery`` CLI.
"""

from .cluster import StrikeCluster, estimate_cluster, plaquette_adjacency
from .detector import (
    DetectionReport,
    DetectorConfig,
    StreamingDetector,
    roc_auc,
)
from .recovery import (
    RECOVERY_POLICIES,
    BurstAdaptiveDecoder,
    BurstEstimate,
    RecoveryPolicy,
    estimate_burst,
    model_reweighted_graph,
    reweight_graph,
)
from .stream import PackedSyndromes, pack_shot_mask

__all__ = [
    "BurstAdaptiveDecoder",
    "BurstEstimate",
    "DetectionReport",
    "DetectorConfig",
    "PackedSyndromes",
    "RECOVERY_POLICIES",
    "RecoveryPolicy",
    "StreamingDetector",
    "StrikeCluster",
    "estimate_burst",
    "estimate_cluster",
    "model_reweighted_graph",
    "pack_shot_mask",
    "plaquette_adjacency",
    "reweight_graph",
    "roc_auc",
]
