"""Depolarizing intrinsic-noise model (paper Eq. 4).

After every gate operation ``O`` each participating qubit independently
suffers an X, Y or Z error, each with probability ``p/3``:

    O|psi>  ->  E O|psi>,   E = sqrt(1-p) I + sqrt(p/3) (X + Y + Z)

Two-qubit gates receive the tensor product ``E (x) E`` of two
independent single-qubit channels, as in the paper.  This uncorrelated
Pauli model is the baseline surface codes are designed against.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..circuits import GateType, UNITARY_GATES
from .base import DEPOLARIZE, NoiseChannel, SiteTable

#: Gates the channel follows by default: every non-identity unitary.
_GATE_SITES = UNITARY_GATES - {GateType.I}


class DepolarizingNoise(NoiseChannel):
    """Uniform depolarizing channel with physical error rate ``p``.

    Parameters
    ----------
    p:
        Total error probability per qubit per gate (split p/3 per Pauli).
    include_measurements, include_resets:
        Whether the channel also fires after measure / reset operations.
        The paper's model attaches errors to gate operations only, so
        both default to False.
    qubits:
        Optional restriction to a subset of qubits (e.g. to emulate a
        device with one noisy region); ``None`` means all.
    """

    def __init__(self, p: float, include_measurements: bool = False,
                 include_resets: bool = False,
                 qubits: Optional[Sequence[int]] = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be a probability, got {p}")
        self.p = float(p)
        self.include_measurements = include_measurements
        self.include_resets = include_resets
        self.qubits = None if qubits is None else frozenset(qubits)

    def site_table(self, num_qubits: int) -> SiteTable:
        gates = _GATE_SITES
        if self.include_measurements:
            gates |= {GateType.MEASURE}
        if self.include_resets:
            gates |= {GateType.RESET}
        probs = np.full(num_qubits, self.p)
        if self.qubits is not None:
            probs[[q for q in range(num_qubits) if q not in self.qubits]] = 0.0
        return self.build_table(DEPOLARIZE, probs, num_qubits, gates)

    def __repr__(self) -> str:
        return f"DepolarizingNoise(p={self.p!r})"
