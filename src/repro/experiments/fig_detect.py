"""Detection figure — strike ROC and LER by recovery policy.

Two panels, both new to this reproduction (the source paper measures
damage post-mortem; its follow-up and Google's cosmic-ray study detect
strikes online):

* **ROC panel** — for a sweep of strike intensities, run a clean batch
  and a struck batch of the d=5 rotated-code memory, score every shot
  with the streaming CUSUM detector, and report ROC AUC, the operating
  point at the default threshold (TPR/FPR), detection latency in
  rounds, and the localisation error of the estimated epicenter.
* **Policy panel** — the same struck memory executed through the
  campaign engine once per :class:`~repro.detect.RecoveryPolicy`, with
  seeds shared across policies so every arm decodes the *same* sampled
  records: LER differences are purely the decode policy.

Both panels use the frame backend: burst reset faults on the entangled
rotated-code data qubits take the documented reset-to-mixed lowering,
identically in every arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codes import XXZZCode, build_memory_experiment
from ..detect import (
    DetectorConfig,
    PackedSyndromes,
    StreamingDetector,
    estimate_cluster,
    roc_auc,
)
from ..detect.recovery import RECOVERY_POLICIES
from ..frames import FrameSimulator, compile_frame_program
from ..injection import Campaign, InjectionTask
from ..injection.results import ResultSet, wilson_interval
from ..injection.spec import CodeSpec, FaultSpec
from ..noise import DepolarizingNoise, NoiseModel, RadiationEvent

#: Detection-scenario defaults: a long memory so the strike has a
#: genuine pre/post window, struck mid-run at the lattice centre.
DEFAULT_DISTANCE = 5
DEFAULT_ROUNDS = 10
DEFAULT_STRIKE_ROUND = 4
DEFAULT_INTENSITIES: Tuple[float, ...] = (0.1, 0.25, 0.5, 1.0)
DEFAULT_P = 0.005


def _setup(distance: int, rounds: int):
    """Experiment + centre-rooted radiation event on the lattice metric."""
    code = XXZZCode(distance, distance)
    experiment = build_memory_experiment(code, rounds=rounds)
    root = code.lattice.data_index(distance // 2, distance // 2)
    event = RadiationEvent.from_positions(root, code.qubit_positions())
    return code, experiment, event, root


def _frame_batch(experiment, noise, shots: int, seed: int) -> np.ndarray:
    """Packed record words for one seeded frame-backend batch."""
    program = compile_frame_program(experiment.circuit, noise, rng=seed)
    sim = FrameSimulator(experiment.circuit.num_qubits, shots, rng=seed + 1)
    return sim.run_packed(program)


@dataclass
class RocPoint:
    """Detection quality at one strike intensity."""

    intensity: float
    auc: float
    tpr: float
    fpr: float
    median_latency: float
    epicenter_error: float

    def to_row(self) -> Dict[str, object]:
        return {"intensity": self.intensity, "auc": self.auc,
                "tpr": self.tpr, "fpr": self.fpr,
                "median_latency_rounds": self.median_latency,
                "epicenter_error": self.epicenter_error}


def roc_series(shots: int = 2048, distance: int = DEFAULT_DISTANCE,
               rounds: int = DEFAULT_ROUNDS,
               strike_round: int = DEFAULT_STRIKE_ROUND,
               intensities: Sequence[float] = DEFAULT_INTENSITIES,
               intrinsic_p: float = DEFAULT_P, seed: int = 2024,
               config: Optional[DetectorConfig] = None) -> List[RocPoint]:
    """Detection ROC/latency/localisation across strike intensities."""
    code, experiment, event, root = _setup(distance, rounds)
    mpr = max(1, code.measures_per_round)
    detector = StreamingDetector(config or DetectorConfig())
    positions = code.qubit_positions()
    root_pos = positions[root]

    clean_noise = NoiseModel([DepolarizingNoise(intrinsic_p)])
    clean_words = _frame_batch(experiment, clean_noise, shots, seed)
    clean_packed = PackedSyndromes.from_record_words(clean_words,
                                                     experiment, shots)
    clean_report = detector.detect(clean_packed)
    fpr = clean_report.flag_rate

    out: List[RocPoint] = []
    for i, intensity in enumerate(intensities):
        noise = NoiseModel([event.burst(strike_round, mpr, scale=intensity),
                            DepolarizingNoise(intrinsic_p)])
        words = _frame_batch(experiment, noise, shots, seed + 10 * (i + 1))
        packed = PackedSyndromes.from_record_words(words, experiment, shots)
        report = detector.detect(packed)
        auc = roc_auc(report.max_scores, clean_report.max_scores)
        timely = report.flagged & (report.flag_round >= strike_round)
        tpr = float(np.mean(timely))
        lats = report.flag_round[timely] - strike_round
        latency = float(np.median(lats)) if lats.size else float("nan")
        cluster = estimate_cluster(packed, report, code)
        if cluster is not None:
            anc = (list(code.z_ancillas) + list(code.x_ancillas))[
                cluster.epicenter]
            ap = positions[anc]
            loc_err = (abs(ap[0] - root_pos[0])
                       + abs(ap[1] - root_pos[1])) / 2.0
        else:
            loc_err = float("nan")
        out.append(RocPoint(intensity=float(intensity), auc=float(auc),
                            tpr=tpr, fpr=float(fpr),
                            median_latency=latency,
                            epicenter_error=float(loc_err)))
    return out


def build_campaign(shots: int = 2048, distance: int = DEFAULT_DISTANCE,
                   rounds: int = DEFAULT_ROUNDS,
                   strike_round: int = DEFAULT_STRIKE_ROUND,
                   intensity: float = 1.0, intrinsic_p: float = DEFAULT_P,
                   decoder: str = "mwpm",
                   policies: Sequence[str] = RECOVERY_POLICIES,
                   root_seed: int = 7202) -> Campaign:
    """One task per recovery policy over the identical struck memory.

    Seeds are pinned (not campaign-derived) and equal across policies:
    the sampled records match shot for shot, so policy columns are a
    paired comparison.
    """
    code = CodeSpec("xxzz", (distance, distance))
    built = code.build()
    root = built.lattice.data_index(distance // 2, distance // 2)
    fault = FaultSpec(kind="radiation", root_qubit=root,
                      strike_round=strike_round, intensity=intensity)
    tasks = []
    for policy in policies:
        task = InjectionTask(code=code, fault=fault, rounds=rounds,
                             intrinsic_p=intrinsic_p, decoder=decoder,
                             backend="frames", recovery=policy,
                             shots=shots, seed=root_seed)
        tasks.append(task.with_tags(fig="detect", policy=policy,
                                    intensity=intensity))
    return Campaign(tasks, root_seed=root_seed)


def analyze(results: ResultSet) -> List[Dict[str, object]]:
    """The policy panel: one row per ``detect`` result."""
    rows = []
    for r in results.filter_tags(fig="detect"):
        lo, hi = wilson_interval(r.errors, r.shots)
        rows.append({"policy": dict(r.task.tags)["policy"],
                     "decoder": r.task.decoder.label,
                     "shots": r.shots, "errors": r.errors,
                     "ler": r.logical_error_rate,
                     "ler_lo": lo, "ler_hi": hi})
    return rows
