"""Word-level bit primitives shared by the packed layouts.

Lives below :mod:`repro.frames` (64 shots per word), which re-exports
it, so the numpy batched-tableau oracle in ``tests/oracles`` (64
tableau rows per word) takes its popcount without the frames package.
"""

from __future__ import annotations

import numpy as np


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit counts (uint64 in, int64 out, any shape).

    Word-level popcount is the packed layouts' native aggregation: a row
    of frame/record words reduces to its across-shot event count without
    ever unpacking to per-shot uint8.  Uses ``numpy.bitwise_count`` when
    present (numpy >= 2.0), else a byte-table fallback.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).astype(np.int64)
    counts = _BYTE_POPCOUNT[words.view(np.uint8)]
    return counts.reshape(*words.shape, 8).sum(axis=-1, dtype=np.int64)


#: Set-bit counts for every byte value (popcount fallback table).
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)],
                          dtype=np.int64)
