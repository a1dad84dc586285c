"""Statistical helpers for campaign analysis."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..injection.results import wilson_interval

__all__ = ["wilson_interval", "wilson_halfwidth", "median_with_iqr",
           "bootstrap_median_ci", "binomial_stderr"]


def wilson_halfwidth(errors: int, shots: int, z: float = 1.96) -> float:
    """Half-width of the Wilson interval — the campaign precision metric."""
    lo, hi = wilson_interval(errors, shots, z)
    return (hi - lo) / 2.0


def median_with_iqr(values: Sequence[float]
                    ) -> Tuple[float, float, float]:
    """``(median, q25, q75)`` of a sample (paper reports medians)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return (float("nan"),) * 3
    return (float(np.median(arr)),
            float(np.percentile(arr, 25)),
            float(np.percentile(arr, 75)))


def bootstrap_median_ci(values: Sequence[float], num_resamples: int = 2000,
                        alpha: float = 0.05,
                        rng: Optional[np.random.Generator] = None
                        ) -> Tuple[float, float]:
    """Percentile-bootstrap CI for the median of a small sample."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return (float("nan"), float("nan"))
    if rng is None:
        rng = np.random.default_rng(0)
    idx = rng.integers(0, arr.size, size=(num_resamples, arr.size))
    meds = np.median(arr[idx], axis=1)
    return (float(np.percentile(meds, 100 * alpha / 2)),
            float(np.percentile(meds, 100 * (1 - alpha / 2))))


def binomial_stderr(errors: int, shots: int) -> float:
    """Standard error of a binomial proportion."""
    if shots <= 0:
        return float("nan")
    p = errors / shots
    return float(np.sqrt(p * (1 - p) / shots))
