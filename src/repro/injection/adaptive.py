"""Adaptive shot allocation for campaign points.

Fixed shot counts are the wrong tool for radiation campaigns: the
interesting regimes sit at very low logical-error rates, so a count
large enough to resolve them wastes compute on every mid-rate point,
while a count sized for mid-rate points under-resolves the tails.
An :class:`AdaptivePolicy` instead keeps sampling a point — one chunk
at a time — until its Wilson interval is tight enough relative to the
measured rate, or a shot ceiling is reached.

Stopping decisions are **watermark-based**: the policy is consulted
only when the cumulative shot count crosses a fixed decision threshold
(a multiple of :data:`DECISION_SHOTS`, block-aligned), and each
decision is a pure function of the cumulative ``(errors, shots)`` at
that threshold.  Chunk streams are seeded deterministically from the
task seed and blocks are canonical, so the prefix counts at any
watermark — and therefore the stop shot — are identical however the
run was scheduled: serial, chunked coarser or finer, interrupted and
resumed, or spread across N workers by :mod:`repro.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..rare.stats import WeightStats
from .results import SIM_BLOCK, wilson_interval

#: Default decision-watermark spacing, in shots.  Matches the engine's
#: default chunk so plain sequential runs behave as before; what matters
#: is that it is *fixed per policy*, not inherited from however the
#: caller happened to chunk the stream.
DECISION_SHOTS = 2 * SIM_BLOCK


@dataclass(frozen=True)
class AdaptivePolicy:
    """Early-stopping rule evaluated after each finished chunk.

    Parameters
    ----------
    rel_halfwidth:
        Stop once the Wilson half-width is at most this fraction of the
        measured rate (e.g. ``0.25`` → ±25% relative precision).
    abs_halfwidth:
        Alternative absolute target; satisfied when the half-width
        itself drops below it.  Either criterion stopping is enough.
    min_shots / min_errors:
        Never stop before both are reached — a handful of lucky shots
        at a low-rate point must not end sampling prematurely.
    max_shots:
        Shot ceiling; ``None`` uses the task's own ``shots`` field, so
        existing fixed-shot campaigns keep their budget as an upper
        bound and simply finish early when the target is met.
    z:
        Normal quantile of the interval (1.96 → 95%).
    decision_shots:
        Watermark spacing: the policy is evaluated at multiples of this
        shot count (rounded up to whole simulation blocks) plus the
        ceiling itself, regardless of chunking or worker count.
    """

    rel_halfwidth: float = 0.25
    abs_halfwidth: Optional[float] = None
    min_shots: int = 512
    min_errors: int = 5
    max_shots: Optional[int] = None
    z: float = 1.96
    decision_shots: int = DECISION_SHOTS

    def __post_init__(self) -> None:
        if self.rel_halfwidth <= 0:
            raise ValueError("rel_halfwidth must be positive")
        if self.min_shots < 1:
            raise ValueError("min_shots must be at least 1")
        if self.decision_shots < 1:
            raise ValueError("decision_shots must be at least 1")

    def ceiling(self, task_shots: int) -> int:
        """The hard shot cap for a task."""
        return task_shots if self.max_shots is None else int(self.max_shots)

    @property
    def decision_step(self) -> int:
        """Watermark spacing rounded up to whole simulation blocks."""
        return -(-self.decision_shots // SIM_BLOCK) * SIM_BLOCK

    def next_watermark(self, shots: int, task_shots: int) -> int:
        """First decision point strictly past ``shots`` (≤ the ceiling).

        Execution proceeds watermark to watermark: a segment's counts
        are banked, the policy is evaluated at its end, and only then
        may sampling stop — so the stop shot is a pure function of the
        canonical block stream, never of chunk sizes or schedules.
        """
        ceiling = self.ceiling(task_shots)
        if shots >= ceiling:
            return ceiling
        step = self.decision_step
        return min((shots // step + 1) * step, ceiling)

    def satisfied(self, errors: int, shots: int,
                  weights: Optional[WeightStats] = None) -> bool:
        """True when ``(errors, shots)`` meets the precision target.

        ``weights`` switches the criterion to the *weighted* estimator
        of a rare-event sampler: the self-normalized rate with the
        weighted Wilson interval over the effective sample size
        (:meth:`repro.rare.stats.WeightStats.wilson_interval`).  The
        ``min_shots`` / ``min_errors`` floors stay in raw shots and raw
        observed failures — a handful of heavy-weight error shots must
        not stop a point whose ESS is still tiny.

        Non-iid weights (multilevel splitting: lanes are correlated
        clones, so the variance formulas understate the estimator's
        true spread — ``min_errors`` could even be met by clones of a
        single original failure) never satisfy the target: split
        points run their full budget and only the ceiling stops them.
        """
        if shots < self.min_shots or errors < self.min_errors:
            return False
        if weights is not None and not weights.iid:
            return False
        if weights is not None:
            rate = weights.estimate("sn")
            if rate <= 0.0:
                return False
            lo, hi = weights.wilson_interval(self.z)
        else:
            rate = errors / shots
            lo, hi = wilson_interval(errors, shots, self.z)
        half = (hi - lo) / 2.0
        if self.abs_halfwidth is not None and half <= self.abs_halfwidth:
            return True
        return half <= self.rel_halfwidth * rate

    def should_stop(self, errors: int, shots: int, task_shots: int,
                    weights: Optional[WeightStats] = None) -> bool:
        """Stop when the target is met or the ceiling is exhausted."""
        return shots >= self.ceiling(task_shots) or \
            self.satisfied(errors, shots, weights)
