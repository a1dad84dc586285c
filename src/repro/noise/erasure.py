"""Deterministic / uncorrelated erasure (reset) faults.

Figures 6 and 7 of the paper study "erasure" faults: one or more qubits
suffer the reset error at full intensity (the t=0 moment of a strike)
*without* spatial spreading.  :class:`ErasureChannel` expresses exactly
that: each listed qubit is reset after every gate acting on it with a
fixed probability (1.0 by default).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import RESET, NoiseChannel, SiteTable


class ErasureChannel(NoiseChannel):
    """Reset the given qubits after each gate with fixed probability.

    Parameters
    ----------
    qubits:
        Physical qubits hit by the erasure.
    probability:
        Reset probability per gate site (paper's Fig. 6/7 use 1.0, the
        fault magnitude at the moment of impact).
    """

    def __init__(self, qubits: Sequence[int], probability: float = 1.0) -> None:
        self.qubits = frozenset(int(q) for q in qubits)
        if not self.qubits:
            raise ValueError("erasure needs at least one qubit")
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        self.probability = float(probability)

    def site_table(self, num_qubits: int) -> SiteTable:
        probs = np.zeros(num_qubits)
        probs[[q for q in self.qubits if q < num_qubits]] = self.probability
        # A certain erasure resets without drawing (the tableau stream).
        return self.build_table(RESET, probs, num_qubits, draw_certain=False)

    def __repr__(self) -> str:
        return (f"ErasureChannel(qubits={sorted(self.qubits)}, "
                f"p={self.probability})")
