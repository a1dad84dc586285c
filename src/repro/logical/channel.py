"""Logical-layer fault channels.

The paper's future-work direction (§VI): take the *post-QEC logical
error rates* measured by the physical-layer campaigns and propagate them
into circuits built from logical (encoded) qubits.  At this layer each
logical qubit is one IR qubit, and a decoding failure manifests as a
logical bit-flip with the campaign-measured probability.  The channel is
a :data:`~repro.noise.base.FLIP` site table, so both backends run it
from one definition.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from ..noise.base import FLIP, NoiseChannel, SiteTable


class LogicalFaultChannel(NoiseChannel):
    """Per-logical-qubit bit-flip channel parameterised by post-QEC LER.

    Parameters
    ----------
    rates:
        ``{logical qubit: error probability per logical operation}`` or
        a vector.  Probabilities typically come from
        :class:`~repro.injection.results.InjectionResult`
        ``logical_error_rate`` values — e.g. the qubit hosting a
        radiation strike inherits the struck code's LER while the others
        keep the intrinsic-noise baseline.
    phase_rates:
        Optional per-qubit logical phase-flip (Z) probabilities; the
        Z-basis memory campaigns of the paper measure bit-flips, so this
        defaults to zero.
    """

    def __init__(self, rates: Union[Mapping[int, float], Sequence[float]],
                 phase_rates: Optional[Union[Mapping[int, float],
                                             Sequence[float]]] = None
                 ) -> None:
        self.rates = self._to_dict(rates)
        self.phase_rates = self._to_dict(phase_rates or {})
        for p in list(self.rates.values()) + list(self.phase_rates.values()):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"rate {p} is not a probability")
        if min([0, *self.rates, *self.phase_rates]) < 0:
            raise ValueError("logical qubit indices are non-negative")

    @staticmethod
    def _to_dict(rates) -> Dict[int, float]:
        if isinstance(rates, Mapping):
            return {int(q): float(p) for q, p in rates.items()}
        return {q: float(p) for q, p in enumerate(rates)}

    def site_table(self, num_qubits: int) -> SiteTable:
        """After every operation, per qubit of the gate, an X flip at
        its rate, then a Z flip at its phase rate."""
        width = 1 + max([-1, *self.rates, *self.phase_rates])
        probs = np.zeros((width, 2))
        for column, rates in enumerate((self.rates, self.phase_rates)):
            for q, p in rates.items():
                probs[q, column] = p
        return self.build_table(FLIP, probs.ravel(), num_qubits)

    def __repr__(self) -> str:
        hot = {q: round(p, 4) for q, p in self.rates.items() if p > 0}
        return f"LogicalFaultChannel({hot})"
