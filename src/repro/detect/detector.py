"""Streaming radiation-strike detection over packed syndromes.

A radiation event announces itself as a burst of spatio-temporally
correlated detection events (Harrington et al. 2024; Vallero et al.
2025): the per-round detection-event count jumps from the intrinsic
baseline to a large fraction of the plaquettes and decays with the
transient.  The detector therefore watches the per-shot, per-round
event counts — computed entirely in the packed word domain — with a
one-sided CUSUM:

    ``S_0 = 0;  S_r = max(0, S_{r-1} + (c_r - mu - k))``

where ``c_r`` is the round-``r`` event count, ``mu`` the baseline rate
and ``k`` a drift allowance.  A shot is *flagged* at the first round
where ``S_r`` crosses the threshold ``h``; ``max_r S_r`` doubles as a
continuous anomaly score for ROC analysis.  CUSUM is the classical
minimal-delay change-point statistic for a persistent shift, which is
exactly what the step-approximated transient (paper Eq. 5) produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .stream import PackedSyndromes


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs for :class:`StreamingDetector`.

    threshold:
        CUSUM flag level ``h``, in detection events.  ``None`` (default)
        scales with the watched stream: ``max(2, P / 4)`` over ``P``
        plaquettes — a quarter of the code lighting up is anomalous at
        any size, while a fixed count tuned on d=5 (24 plaquettes)
        would be unreachable on d=3 (8).
    slack:
        Per-round drift allowance ``k`` added on top of the baseline —
        absorbs Poisson fluctuation of the intrinsic rate so the score
        stays near zero on clean rounds.
    baseline:
        Expected intrinsic events per round (``mu``).  ``None``
        estimates it per batch as the median of the per-round mean
        counts — robust while the burst occupies under half the rounds.
    """

    threshold: Optional[float] = None
    slack: float = 1.0
    baseline: Optional[float] = None

    def resolve_threshold(self, num_plaquettes: int) -> float:
        if self.threshold is not None:
            return float(self.threshold)
        return max(2.0, num_plaquettes / 4.0)


@dataclass
class DetectionReport:
    """Outcome of one detection pass over a batch.

    ``scores`` is the CUSUM trajectory ``(B, rounds)``; ``flag_round``
    holds the first crossing round per shot (-1: never flagged);
    ``active_rounds`` is the batch-level burst window ``[start, end)``
    estimated from the flagged shots' mean counts, or ``None``.
    """

    scores: np.ndarray
    flag_round: np.ndarray
    baseline: float
    threshold: float
    active_rounds: Optional[Tuple[int, int]] = None

    @property
    def flagged(self) -> np.ndarray:
        return self.flag_round >= 0

    @property
    def num_flagged(self) -> int:
        return int(np.count_nonzero(self.flagged))

    @property
    def flag_rate(self) -> float:
        B = self.scores.shape[0]
        return self.num_flagged / B if B else 0.0

    @property
    def max_scores(self) -> np.ndarray:
        """Per-shot continuous anomaly score (ROC statistic)."""
        if self.scores.shape[1] == 0:
            return np.zeros(self.scores.shape[0])
        return self.scores.max(axis=1)


class StreamingDetector:
    """CUSUM change-point detector over packed syndrome streams."""

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config or DetectorConfig()

    def detect(self, packed: PackedSyndromes) -> DetectionReport:
        counts = packed.round_event_counts()          # (B, R)
        B, R = counts.shape
        cfg = self.config
        if cfg.baseline is not None:
            mu = float(cfg.baseline)
        elif R:
            mu = float(np.median(counts.mean(axis=0)))
        else:
            mu = 0.0
        drift = mu + cfg.slack
        threshold = cfg.resolve_threshold(packed.num_plaquettes)
        scores = np.empty((B, R), dtype=float)
        s = np.zeros(B, dtype=float)
        for r in range(R):
            s = np.maximum(0.0, s + counts[:, r] - drift)
            scores[:, r] = s
        crossed = scores > threshold
        flag_round = np.where(crossed.any(axis=1),
                              crossed.argmax(axis=1), -1)
        active = self._active_window(counts, flag_round >= 0, drift)
        return DetectionReport(scores=scores, flag_round=flag_round,
                               baseline=mu, threshold=threshold,
                               active_rounds=active)

    @staticmethod
    def _active_window(counts: np.ndarray, flagged: np.ndarray,
                       drift: float) -> Optional[Tuple[int, int]]:
        """Batch-level burst window: the round span where the flagged
        shots' mean count exceeds the drift line."""
        if not flagged.any():
            return None
        means = counts[flagged].mean(axis=0)
        hot = np.nonzero(means > drift)[0]
        if hot.size == 0:
            return None
        return int(hot[0]), int(hot[-1]) + 1


# ----------------------------------------------------------------------
# ROC analysis
# ----------------------------------------------------------------------
def roc_auc(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Area under the ROC curve: ``P(pos > neg) + 0.5 P(pos == neg)``
    (Mann–Whitney), exact under ties."""
    pos = np.asarray(pos_scores, dtype=float)
    neg = np.asarray(neg_scores, dtype=float)
    if pos.size == 0 or neg.size == 0:
        return float("nan")
    both = np.concatenate([pos, neg])
    order = np.argsort(both, kind="mergesort")
    ranks = np.empty_like(both)
    # Midranks for ties.
    sorted_vals = both[order]
    i = 0
    n = both.size
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    r_pos = ranks[:pos.size].sum()
    u = r_pos - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))
