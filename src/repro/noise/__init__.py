"""Noise and fault models (paper §III).

* :class:`DepolarizingNoise` — intrinsic Pauli noise, Eq. 4.
* :func:`temporal_decay` / :func:`spatial_damping` / :func:`transient_decay`
  — Eqs. 5-7.
* :class:`RadiationEvent` / :class:`RadiationChannel` — a particle
  strike on an architecture graph.
* :class:`RadiationBurst` — the same strike landing mid-run at a
  syndrome round and decaying round by round (detection scenarios).
* :class:`ErasureChannel` — non-spreading reset faults (Figs. 6-7).
* :func:`run_batch_noisy` — noisy execution on either backend.
"""

from .base import NoiseChannel, NoiseModel
from .depolarizing import DepolarizingNoise
from .erasure import ErasureChannel
from .executor import run_batch_noisy
from .radiation import (
    DEFAULT_GAMMA,
    DEFAULT_NUM_SAMPLES,
    DEFAULT_SPATIAL_N,
    RadiationBurst,
    RadiationChannel,
    RadiationEvent,
    sample_times,
    spatial_damping,
    stepped_temporal_decay,
    temporal_decay,
    transient_decay,
)

__all__ = [
    "NoiseChannel",
    "NoiseModel",
    "DepolarizingNoise",
    "ErasureChannel",
    "run_batch_noisy",
    "RadiationBurst",
    "RadiationChannel",
    "RadiationEvent",
    "temporal_decay",
    "stepped_temporal_decay",
    "spatial_damping",
    "transient_decay",
    "sample_times",
    "DEFAULT_GAMMA",
    "DEFAULT_SPATIAL_N",
    "DEFAULT_NUM_SAMPLES",
]
