"""Figure 3 — temporal decay of the radiation fault.

Tabulates the paper's Fig. 3: the ``n_s = 10`` samples of the decay
``T(t) = exp(-10 t)`` that the step approximation ``T̂(t)`` injects,
plus an ``n_s`` ablation quantifying the accuracy/cost trade-off the
paper mentions when fixing ``n_s = 10``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..noise.radiation import (
    DEFAULT_GAMMA,
    DEFAULT_NUM_SAMPLES,
    sample_times,
    stepped_temporal_decay,
    temporal_decay,
)


def sample_table(gamma: float = DEFAULT_GAMMA,
                 num_samples: int = DEFAULT_NUM_SAMPLES
                 ) -> List[Dict[str, object]]:
    """The ``n_s`` sampled injection probabilities (Fig. 5's time axis)."""
    ts = sample_times(num_samples)
    return [{"sample": k, "t": float(tt),
             "injection_prob": float(temporal_decay(tt, gamma))}
            for k, tt in enumerate(ts)]


def sampling_ablation(candidates: Sequence[int] = (2, 5, 10, 20, 50),
                      gamma: float = DEFAULT_GAMMA,
                      num_points: int = 2001) -> List[Dict[str, object]]:
    """Approximation error of T̂ vs sample count (why n_s = 10 suffices)."""
    t = np.linspace(0.0, 1.0, num_points)
    ref = temporal_decay(t, gamma)
    rows = []
    for ns in candidates:
        stepped = stepped_temporal_decay(t, gamma, ns)
        err = np.abs(stepped - ref)
        rows.append({
            "num_samples": ns,
            "max_abs_error": float(err.max()),
            "mean_abs_error": float(err.mean()),
            "sim_cost_factor": ns / DEFAULT_NUM_SAMPLES,
        })
    return rows
