"""Assembly of 2-D logical-error landscapes (Fig. 5 style)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np


@dataclass
class Landscape:
    """A logical-error surface over (intrinsic p, fault time sample).

    ``rates[i, j]`` is the logical error rate at ``p_values[i]`` and
    temporal sample ``time_indices[j]`` (``root_probs[j]`` gives the
    matching root injection probability, the paper's second axis).
    """

    code_label: str
    p_values: np.ndarray
    time_indices: np.ndarray
    root_probs: np.ndarray
    rates: np.ndarray

    @property
    def peak(self) -> float:
        return float(np.nanmax(self.rates))

    def at_strike(self) -> np.ndarray:
        """LER column at the moment of impact (t = 0, 100% root prob)."""
        return self.rates[:, 0]

    def monotone_violations(self, axis: int, tol: float = 0.0) -> int:
        """Count strict monotonicity violations along an axis.

        Used to check the paper's Observation II (no destructive
        interference: the surface should not dip as either noise source
        intensifies) up to statistical tolerance ``tol``.
        """
        diffs = np.diff(self.rates, axis=axis)
        if axis == 1:
            # Time axis: root probability *decreases* with sample index,
            # so rates should decrease too; violations are increases.
            return int(np.sum(diffs > tol))
        return int(np.sum(diffs < -tol))

    def to_rows(self) -> List[Dict[str, object]]:
        rows = []
        for i, p in enumerate(self.p_values):
            for j, t in enumerate(self.time_indices):
                rows.append({
                    "code": self.code_label,
                    "p": float(p),
                    "time_index": int(t),
                    "root_prob": float(self.root_probs[j]),
                    "ler": float(self.rates[i, j]),
                })
        return rows

    def ascii_heatmap(self, width: int = 5) -> str:
        """Text rendering of the surface (Fig. 5 in a terminal).

        Rows are intrinsic-noise levels (low at the top), columns the
        fault's temporal samples (strike on the left); cells show LER in
        percent with a shade character for quick scanning.
        """
        shades = " .:-=+*#%@"
        lines = [f"{self.code_label}: logical error (%) — rows p, "
                 f"cols fault time"]
        header = "p \\ t    " + "".join(f"{int(t):>{width + 3}d}"
                                        for t in self.time_indices)
        lines.append(header)
        for i, p in enumerate(self.p_values):
            cells = []
            for j in range(len(self.time_indices)):
                r = self.rates[i, j]
                if np.isnan(r):
                    cells.append(" " * (width + 3))
                    continue
                shade = shades[min(int(r * len(shades)), len(shades) - 1)]
                cells.append(f" {shade}{100 * r:{width}.1f}" + " ")
            lines.append(f"{p:8.0e}" + "".join(cells))
        return "\n".join(lines)
