"""Weighted-estimator statistics for rare-event campaigns.

Importance-sampled shots carry a likelihood-ratio weight ``w_i`` (the
probability of the sampled noise realisation under the *nominal* model
divided by its probability under the *tilted* sampling model, times any
splitting discount).  A campaign point's logical error rate is then no
longer ``errors / shots`` but a weighted functional of the per-shot
``(w_i, e_i)`` pairs, and every layer that used to aggregate two ints
now aggregates four scalar moments:

``wsum``  = sum(w_i)          ``wsq``  = sum(w_i^2)
``esum``  = sum(w_i   e_i)    ``esq``  = sum(w_i^2 e_i)

These four sums are associative and order-insensitive in exact
arithmetic; the engine always adds them in canonical block order (the
contiguous frontier), so weighted counts stay bit-identical across
chunk sizes, resumes and worker counts exactly like the integer counts.

Two point estimators are provided:

* **Horvitz-Thompson** (``ht``): ``esum / N`` — unbiased, but unbounded
  relative variance when the tilt overshoots;
* **self-normalized** (``sn``, the default): ``esum / wsum`` —
  consistent, bounded by [0, max w], usually lower variance, and equal
  to the plain sample mean when every weight is 1.

Interval estimates:

* **delta method**: normal interval with the standard linearised
  variance of the chosen estimator;
* **weighted Wilson** (the adaptive-stopping criterion): the classic
  Wilson score interval evaluated at the weighted rate with the
  *design-effect* effective sample size ``n_eff = p (1 - p) / Var``
  in place of ``n`` — the Bernoulli sample count whose information
  equals the weighted estimator's.  (The Kish ESS ``wsum^2 / wsq``
  stays available as a weight-degeneracy diagnostic, but it is the
  wrong ``n`` for a *rate* interval under tilting: error shots carry
  systematically small weights, which Kish ignores.)  At unit weights
  ``n_eff == n`` and the interval reduces to the unweighted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


def wilson_from_rate(p: float, n: float, z: float = 1.96
                     ) -> Tuple[float, float]:
    """Wilson score interval for a measured rate ``p`` over ``n``
    (possibly effective, i.e. fractional) samples.

    The float-in/float-out core of the classic interval: the
    unweighted :func:`repro.injection.results.wilson_interval` and the
    weighted ESS-based interval both evaluate exactly this expression,
    so the two agree bit-for-bit whenever ``(p, n)`` do.
    """
    if n <= 0:
        return (0.0, 1.0)
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclass(frozen=True)
class WeightStats:
    """The four weighted moments of one shot range (see module doc).

    Immutable and additive: ``a + b`` concatenates two disjoint shot
    ranges.  ``shots`` rides along so Horvitz-Thompson estimates and
    weight-conservation diagnostics know the nominal denominator.
    """

    shots: int = 0
    wsum: float = 0.0
    wsq: float = 0.0
    esum: float = 0.0
    esq: float = 0.0
    #: Are the underlying (w_i, e_i) pairs independent draws?  True
    #: for plain MC and tilted sampling; False for multilevel
    #: splitting, whose lanes are correlated clones — the variance /
    #: ESS formulas below assume independence, so non-iid moments mark
    #: their intervals as optimistic (and the adaptive policy refuses
    #: to early-stop on them).
    iid: bool = True

    @classmethod
    def from_counts(cls, shots: int, errors: int) -> "WeightStats":
        """The unit-weight (plain Monte Carlo) moments of a count pair."""
        return cls(shots=int(shots), wsum=float(shots), wsq=float(shots),
                   esum=float(errors), esq=float(errors))

    @classmethod
    def from_weights(cls, weights, errors) -> "WeightStats":
        """Moments of per-shot ``weights`` (floats) and ``errors``
        (bools); sums run in array order, so identical inputs produce
        bit-identical moments."""
        import numpy as np

        w = np.asarray(weights, dtype=np.float64)
        e = np.asarray(errors, dtype=bool)
        we = w[e]
        return cls(shots=int(w.size),
                   wsum=float(w.sum()), wsq=float((w * w).sum()),
                   esum=float(we.sum()), esq=float((we * we).sum()))

    def __add__(self, other: "WeightStats") -> "WeightStats":
        return WeightStats(self.shots + other.shots,
                           self.wsum + other.wsum, self.wsq + other.wsq,
                           self.esum + other.esum, self.esq + other.esq,
                           iid=self.iid and other.iid)

    # -- diagnostics ---------------------------------------------------
    @property
    def ess(self) -> float:
        """Kish effective sample size ``wsum^2 / wsq`` (== ``shots``
        for unit weights; collapses toward 1 as weights degenerate)."""
        if self.wsq <= 0.0:
            return 0.0
        return self.wsum * self.wsum / self.wsq

    @property
    def ess_fraction(self) -> float:
        return self.ess / self.shots if self.shots else 0.0

    # -- point estimates -----------------------------------------------
    def estimate(self, mode: str = "sn") -> float:
        """Weighted logical-error-rate estimate (``sn`` or ``ht``)."""
        if mode == "sn":
            return self.esum / self.wsum if self.wsum > 0 else 0.0
        if mode == "ht":
            return self.esum / self.shots if self.shots else 0.0
        raise ValueError(f"unknown estimator mode {mode!r}")

    # -- interval estimates --------------------------------------------
    def variance(self, mode: str = "sn") -> float:
        """Estimated variance of :meth:`estimate` (delta method).

        For ``ht``, the empirical variance of the iid terms ``w_i e_i``
        over ``shots`` draws; for ``sn``, the linearised ratio variance
        ``sum(w_i^2 (e_i - p)^2) / wsum^2``, expanded in the four
        moments (``e_i`` is binary, so ``sum(w^2 e^2) == esq``).
        """
        if mode == "ht":
            n = self.shots
            if n <= 1:
                return float("inf")
            p = self.esum / n
            return max(0.0, (self.esq - n * p * p)) / (n * (n - 1))
        if mode == "sn":
            if self.wsum <= 0:
                return float("inf")
            p = self.esum / self.wsum
            num = self.esq * (1.0 - 2.0 * p) + p * p * self.wsq
            return max(0.0, num) / (self.wsum * self.wsum)
        raise ValueError(f"unknown estimator mode {mode!r}")

    @property
    def design_ess(self) -> float:
        """Design-effect effective sample size ``p (1 - p) / Var`` of
        the self-normalized estimate (== ``shots`` at unit weights);
        falls back to the Kish ESS while no failure has been seen."""
        p = self.estimate("sn")
        var = self.variance("sn")
        if p <= 0.0 or p >= 1.0 or var <= 0.0 \
                or not math.isfinite(var):
            return self.ess
        return p * (1.0 - p) / var

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Weighted Wilson interval: the self-normalized rate over the
        design-effect effective sample size (reduces to the classic
        interval at unit weights)."""
        return wilson_from_rate(self.estimate("sn"), self.design_ess, z)


def required_shots(variance_per_shot: float, rate: float,
                   rel_halfwidth: float, z: float = 1.96) -> float:
    """Shots needed for a ``± rel_halfwidth * rate`` normal interval
    given the per-shot variance of the estimator's iid terms."""
    if rate <= 0.0 or variance_per_shot <= 0.0:
        return float("inf")
    target = rel_halfwidth * rate
    return z * z * variance_per_shot / (target * target)


def mc_required_shots(rate: float, rel_halfwidth: float,
                      z: float = 1.96) -> float:
    """Plain-Monte-Carlo shots for the same target: the Bernoulli
    variance ``p (1 - p)`` per shot."""
    return required_shots(rate * (1.0 - rate), rate, rel_halfwidth, z)


def variance_reduction_factor(stats: WeightStats, rel_halfwidth: float,
                              z: float = 1.96, mode: str = "ht") -> float:
    """How many times fewer shots the weighted estimator needs than
    plain MC to reach the same relative CI target at the measured rate.

    Both shot requirements are evaluated analytically from the same
    run's moments (running the actual multi-million-shot MC comparison
    would defeat the point), so the factor is a per-shot variance
    ratio: ``p(1-p) / Var_1[estimator]``.
    """
    p = stats.estimate(mode)
    if p <= 0.0:
        return 0.0
    per_shot = stats.variance(mode) * stats.shots
    need = required_shots(per_shot, p, rel_halfwidth, z)
    mc = mc_required_shots(p, rel_halfwidth, z)
    if not math.isfinite(need) or need <= 0.0:
        return 0.0
    return mc / need
