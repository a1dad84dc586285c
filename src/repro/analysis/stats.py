"""Statistical helpers for campaign analysis."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..injection.results import wilson_interval

__all__ = ["wilson_interval", "median_with_iqr"]


def median_with_iqr(values: Sequence[float]
                    ) -> Tuple[float, float, float]:
    """``(median, q25, q75)`` of a sample (paper reports medians)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return (float("nan"),) * 3
    return (float(np.median(arr)),
            float(np.percentile(arr, 25)),
            float(np.percentile(arr, 75)))
