"""Burst-adaptive decoding: act on a detection before decoding.

Three :class:`RecoveryPolicy` settings, threaded through
``InjectionTask.recovery``, sweep specs and the CLI:

* ``static`` — decode every shot with the unit-weight graph (the
  pre-detection pipeline; the control arm of every comparison);
* ``reweight`` — model-inverted recovery: from the detection stream,
  estimate the strike's epicenter position (excess-weighted ancilla
  centroid), onset round and amplitude (total-excess matching), then
  assign every space/time edge its log-likelihood weight under the
  paper's transient model ``F(t, d) = T(t) S(d)`` (Eqs. 5-7).  Edges in
  the blast core saturate to near-free, erasure-style weights, the
  skirt is graded, and everything outside keeps weight 1.  MWPM
  consumes the weights through its shortest-path tables; union-find
  reacts only to fully erased (near-certain) edges, which it pre-grows
  as an erasure.
* ``discard_window`` — distrust the burst window entirely: flagged
  shots' detectors inside the window are cleared and the remaining
  rounds decode statically (the damage then surfaces as defects at the
  window boundary).

A batch-level binary erasure of the whole estimated blast region was
tried first and *lost* to static decoding — only a fraction of the
region's qubits actually reset in any one shot, so discarding all of
its syndrome information throws away more than the strike does.  The
graded model inversion keeps that information and recovers most of the
oracle (true-probability) reweighting gain.

Only flagged shots ever see a modified decode, so a false-negative
detection degrades gracefully to ``static`` behaviour, and clean shots
are bit-identical across policies.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..codes.base import MemoryExperiment
from ..decoders.base import Decoder, DecodeResult
from ..decoders.batch import SyndromeBatch
from ..decoders.detector_graph import BOUNDARY, ERASED_WEIGHT, DetectorGraph
from ..decoders.spec import RECOVERY_POLICIES
from ..noise.radiation import (
    DEFAULT_GAMMA,
    sample_times,
    spatial_damping,
    temporal_decay,
)
from .cluster import StrikeCluster, _combined_supports, estimate_cluster
from .detector import DetectionReport, DetectorConfig, StreamingDetector
from .stream import PackedSyndromes, pack_shot_mask


class RecoveryPolicy(enum.Enum):
    """What a flagged burst window does to decoding (one member per
    name in :data:`~repro.decoders.spec.RECOVERY_POLICIES`)."""

    STATIC = "static"
    REWEIGHT = "reweight"
    DISCARD_WINDOW = "discard_window"

    @classmethod
    def coerce(cls, value: Union["RecoveryPolicy", str]) -> "RecoveryPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise ValueError(
                f"unknown recovery policy {value!r}; expected one of "
                f"{RECOVERY_POLICIES}") from None


#: Per-edge flip probability above which an edge counts as *erased*
#: (near-certain reset): it drops to ERASED_WEIGHT, which union-find
#: pre-grows and MWPM treats as free.
SATURATED_EDGE_PROB = 0.49

#: Weight floor for graded (non-saturated) blast edges.
GRADED_WEIGHT_FLOOR = 0.02


@dataclass(frozen=True)
class BurstEstimate:
    """Strike parameters inferred from the detection stream alone."""

    position: Tuple[float, float]   # half-step coords (qubit_positions)
    onset_round: int
    amplitude: float                # peak reset probability at d = 0
    window: Tuple[int, int]


def reweight_graph(graph: DetectorGraph, cluster: StrikeCluster
                   ) -> DetectorGraph:
    """Binary erasure of a blast cluster (geometry-free fallback).

    Space edges of blast-cluster data qubits and time edges of blast
    plaquettes are erased for every round intersecting the burst
    window.  Used when a code has no planar embedding for the model
    inversion; on embedded codes the graded weights decode strictly
    better (module docstring).
    """
    start, end = cluster.window
    qubits = frozenset(cluster.qubits)
    plaqs = frozenset(cluster.primary_plaquettes)
    P = graph.num_plaquettes

    def weight(e) -> float:
        u = e.u if e.u != BOUNDARY else e.v
        r, p = divmod(u, P)
        if e.qubit is not None:          # space edge
            if e.qubit in qubits and start <= r < end:
                return ERASED_WEIGHT
        else:                            # time edge (r -> r+1, same p)
            if p in plaqs and r + 1 > start and r < end:
                return ERASED_WEIGHT
        return e.weight

    return graph.reweighted(weight)


class _ExperimentGeometry:
    """Per-experiment tables the model inversion needs.

    * qubit positions (half-step embedding) — ``None`` disables the
      model path;
    * combined (primary + dual) plaquette supports and ancilla ids,
      aligned with the packed stream's plaquette ordering;
    * per-round gate multiplicities, derived from the *code structure*
      (plaquette memberships), so they live in code space and stay
      valid when the campaign transpiles the circuit onto an
      architecture (detection and decoding only ever see cbits; this
      table must not depend on physical qubit numbering either).
    """

    def __init__(self, experiment: MemoryExperiment, basis: str) -> None:
        code = experiment.code
        self.positions = code.qubit_positions()
        primary_anc = (code.z_ancillas if basis == "Z" else code.x_ancillas)
        dual_anc = (code.x_ancillas if basis == "Z" else code.z_ancillas)
        self.ancillas: List[int] = list(primary_anc) + list(dual_anc)
        self.supports = _combined_supports(
            code, basis, len(primary_anc), len(self.ancillas))
        # Gates touching each qubit in one syndrome round: a data qubit
        # sees one CX per plaquette membership; an ancilla its support's
        # CX legs plus H/measure/reset bookkeeping.
        gates: Dict[int, int] = {}
        for support in list(code.z_plaquettes) + list(code.x_plaquettes):
            for q in support:
                gates[q] = gates.get(q, 0) + 1
        for anc, support in zip(code.z_ancillas, code.z_plaquettes):
            gates[anc] = len(support) + 2
        for anc, support in zip(code.x_ancillas, code.x_plaquettes):
            gates[anc] = len(support) + 4
        self.gates = gates
        #: Paper-default temporal step profile, one sample per round.
        self.t_profile = temporal_decay(sample_times(), DEFAULT_GAMMA)

    def distance_from(self, pos: Tuple[float, float], qubit: int) -> float:
        x, y = self.positions[qubit]
        return (abs(x - pos[0]) + abs(y - pos[1])) / 2.0

    def flip_prob(self, est: BurstEstimate, qubit: int, r: int) -> float:
        """Bit-flip probability of ``qubit`` during round ``r`` under
        the estimated strike: per-gate reset chance ``A S(d) T(k)``,
        each reset a half flip, compounded over the round's gates."""
        k = r - est.onset_round
        if k < 0 or qubit not in self.positions:
            return 0.0
        t = self.t_profile[min(k, len(self.t_profile) - 1)]
        s = float(spatial_damping(self.distance_from(est.position, qubit)))
        p_reset = min(1.0, est.amplitude * s) * t
        return 1.0 - (1.0 - p_reset / 2.0) ** max(self.gates.get(qubit, 4), 1)


def estimate_burst(packed: PackedSyndromes, report: DetectionReport,
                   geometry: _ExperimentGeometry,
                   cluster: StrikeCluster) -> Optional[BurstEstimate]:
    """Invert the detection stream into strike-model parameters.

    Epicenter: excess-weighted centroid of the ancilla positions over
    the burst window.  Onset: window start.  Amplitude: bisected so the
    model's predicted total excess event count over the window matches
    the measured one.
    """
    if geometry.positions is None:
        return None
    flagged = report.flagged
    n_flagged = int(np.count_nonzero(flagged))
    if n_flagged == 0:
        return None
    window = cluster.window
    mask = pack_shot_mask(flagged)
    counts = packed.plaquette_event_counts(
        shot_mask=mask, rounds=slice(*window))       # (win, P)
    rates = counts / n_flagged
    base = report.baseline / max(1, packed.num_plaquettes)
    excess = np.maximum(rates - base, 0.0)
    per_plaq = excess.sum(axis=0)
    total = float(per_plaq.sum())
    if total <= 0.0:
        return None
    anc_pos = np.array([geometry.positions[a] for a in geometry.ancillas],
                       dtype=float)
    centroid = tuple((per_plaq[:, None] * anc_pos).sum(axis=0) / total)

    probe = BurstEstimate(position=centroid, onset_round=window[0],
                          amplitude=1.0, window=window)

    # Amplitude by matching total excess on the *skirt* only: detection
    # event rates saturate near 0.5 at the blast core (a plaquette
    # cannot flag more than once per round), so the unsaturated outer
    # plaquettes carry the usable amplitude information.
    skirt = np.nonzero(rates.max(axis=0) < 0.35)[0]
    if skirt.size == 0 or excess[:, skirt].sum() <= 0.0:
        skirt = np.arange(packed.num_plaquettes)
    skirt_total = float(excess[:, skirt].sum())

    def predicted_total(amplitude: float) -> float:
        est = dataclasses.replace(probe, amplitude=amplitude)
        out = 0.0
        for r in range(*window):
            for p in skirt:
                rate = sum(geometry.flip_prob(est, q, r)
                           for q in geometry.supports[p])
                anc = geometry.ancillas[p]
                rate += geometry.flip_prob(est, anc, r)
                if r > 0:
                    rate += geometry.flip_prob(est, anc, r - 1)
                out += min(0.6, rate)
        return out

    lo, hi = 0.0, 1.0
    if predicted_total(1.0) <= skirt_total:
        lo = 1.0
    else:
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            if predicted_total(mid) < skirt_total:
                lo = mid
            else:
                hi = mid
    amplitude = 0.5 * (lo + hi)
    if amplitude <= 0.0:
        return None
    return dataclasses.replace(probe, amplitude=amplitude)


def model_reweighted_graph(graph: DetectorGraph, est: BurstEstimate,
                           geometry: _ExperimentGeometry,
                           intrinsic_edge_prob: float = 0.01
                           ) -> DetectorGraph:
    """Log-likelihood edge weights under an estimated strike.

    ``w(e) = ln((1-p_e)/p_e) / ln((1-p0)/p0)`` with ``p0`` the
    intrinsic edge probability, clamped to ``[GRADED_WEIGHT_FLOOR, 1]``
    — so an edge at the intrinsic rate keeps the static unit weight and
    a near-certain (saturated) edge becomes an erasure.
    """
    P = graph.num_plaquettes
    p0 = intrinsic_edge_prob
    norm = math.log((1.0 - p0) / p0)
    primary_anc = geometry.ancillas

    def weight(e) -> float:
        u = e.u if e.u != BOUNDARY else e.v
        r, p = divmod(u, P)
        if e.qubit is not None:
            pe = geometry.flip_prob(est, e.qubit, r)
        else:
            pe = geometry.flip_prob(est, primary_anc[p], r)
        if pe >= SATURATED_EDGE_PROB:
            return ERASED_WEIGHT
        if pe <= p0:
            return e.weight
        return max(GRADED_WEIGHT_FLOOR,
                   math.log((1.0 - pe) / pe) / norm)

    return graph.reweighted(weight)


@dataclass
class BurstAdaptiveDecoder:
    """Detection-aware wrapper around a base syndrome decoder.

    Satisfies the :class:`~repro.decoders.base.Decoder` batch protocol,
    so the campaign engine swaps it in transparently.  Per batch it

    1. builds the packed detection stream from the batch's record
       words,
    2. runs the streaming CUSUM detector,
    3. applies the recovery policy to the flagged shots — on the
       detector words, never on unpacked records.

    Nothing is carried from one batch to the next: the campaign engine
    builds a wrapper per simulation block, and every estimate comes
    from the batch being decoded — which is what keeps a point's
    counts independent of how its blocks were grouped or scheduled.
    """

    base: Decoder
    policy: RecoveryPolicy = RecoveryPolicy.REWEIGHT
    config: DetectorConfig = field(default_factory=DetectorConfig)
    cluster_threshold: float = 0.25
    intrinsic_edge_prob: float = 0.01
    #: Diagnostics from the most recent batch.
    last_report: Optional[DetectionReport] = field(default=None, repr=False)
    last_cluster: Optional[StrikeCluster] = field(default=None, repr=False)
    last_estimate: Optional[BurstEstimate] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.policy = RecoveryPolicy.coerce(self.policy)

    @property
    def name(self) -> str:
        return f"{self.base.name}+{self.policy.value}"

    @property
    def graph(self) -> DetectorGraph:
        return self.base.graph

    # ------------------------------------------------------------------
    def decode_batch(self, experiment: MemoryExperiment, batch
                     ) -> DecodeResult:
        if not isinstance(batch, SyndromeBatch):
            batch = SyndromeBatch.from_records(batch)
        base = self.base
        packed = PackedSyndromes.from_record_words(
            batch.record_words, experiment, batch.batch_size,
            basis=base.graph.basis)
        with obs.span("detect"):
            report = StreamingDetector(self.config).detect(packed)
        self.last_report = report
        self.last_cluster = None
        self.last_estimate = None
        flagged = report.flagged
        if self.policy is RecoveryPolicy.STATIC or not flagged.any():
            # Strike-free (or policy-off) batches are the base
            # decoder's own.
            return base.decode_batch(experiment, batch)

        B = batch.batch_size
        det_words, raw = base._prepare(experiment, batch)
        if self.policy is RecoveryPolicy.DISCARD_WINDOW:
            window = report.active_rounds
            if window is None:
                window = (int(report.flag_round[flagged].min()),
                          packed.rounds)
            det_words[window[0]:window[1]] &= ~pack_shot_mask(flagged)
        else:
            self.last_cluster = estimate_cluster(
                packed, report, experiment.code,
                rel_threshold=self.cluster_threshold)
        if self.last_cluster is None:
            corrections = base._corrections(det_words, B)
        else:
            # The base decoder rebound to this batch's reweighted graph
            # (its syndrome cache is only valid against that graph)
            # takes the flagged shots, the base itself the clean ones.
            adapted = dataclasses.replace(base, graph=self._reweighted(
                packed, report, self.last_cluster, experiment))
            corrections = base._corrections(det_words, B, ~flagged) \
                | adapted._corrections(det_words, B, flagged)
        return DecodeResult(decoded=raw ^ corrections,
                            expected=experiment.expected_logical,
                            corrections=corrections)

    # ------------------------------------------------------------------
    def _reweighted(self, packed: PackedSyndromes, report: DetectionReport,
                    cluster: StrikeCluster, experiment: MemoryExperiment
                    ) -> DetectorGraph:
        """Model-inverted graded graph for this batch's strike, or the
        binary-erasure fallback for codes without a planar embedding."""
        geometry = _ExperimentGeometry(experiment, self.base.graph.basis)
        est = estimate_burst(packed, report, geometry, cluster)
        self.last_estimate = est
        if est is None:
            return reweight_graph(self.base.graph, cluster)
        return model_reweighted_graph(
            self.base.graph, est, geometry,
            intrinsic_edge_prob=self.intrinsic_edge_prob)
