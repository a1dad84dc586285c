"""Figure 4 — spatial decay of the radiation fault.

Regenerates the paper's Fig. 4: the injection-probability field around
an impact at the centre of a 2-D lattice, with a 100% peak at the root
and ``S(d) = 1/(d+1)^2`` damping over architecture-graph distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..arch import mesh
from ..noise.radiation import DEFAULT_SPATIAL_N, spatial_damping


@dataclass
class SpatialDecayData:
    """The 2-D injection-probability field of Fig. 4."""

    extent: int                 # half-width of the plotted window
    distances: np.ndarray       # (2E+1, 2E+1) graph distances
    probabilities: np.ndarray   # (2E+1, 2E+1) injection probabilities
    n: float

    def radial_profile(self) -> List[Dict[str, object]]:
        """Median probability at each integer distance (radial series)."""
        rows = []
        dmax = int(np.nanmax(self.distances))
        for d in range(dmax + 1):
            mask = self.distances == d
            if mask.any():
                rows.append({"distance": d,
                             "injection_prob": float(
                                 np.median(self.probabilities[mask]))})
        return rows


def run(extent: int = 10, n: float = DEFAULT_SPATIAL_N) -> SpatialDecayData:
    """Evaluate the field on a ``(2*extent+1)^2`` mesh around the root.

    Distances are architecture-graph distances on the mesh (Manhattan),
    matching the paper's unit-weight interconnection-graph model.
    """
    side = 2 * extent + 1
    lattice = mesh(side, side)
    root = extent * side + extent  # centre
    dist_map = lattice.distances_from(root)
    distances = np.full((side, side), np.nan)
    for q, d in dist_map.items():
        distances[divmod(q, side)] = d
    probabilities = spatial_damping(distances, n)
    return SpatialDecayData(extent=extent, distances=distances,
                            probabilities=probabilities, n=n)
