"""Radiation-induced transient-fault model (paper §III-B, Eqs. 5-7).

A particle strike at a *root* physical qubit deposits energy that

* decays in time as ``T(t) = exp(-gamma t)`` with ``gamma = 10`` over a
  normalised window ``t in [0, 1]`` (Eq. 5), approximated by a step
  function sampled at ``n_s`` equidistant instants (Fig. 3), and
* spreads in space as ``S(d) = n^2 / (d + n)^2`` with ``n = 1`` (Eq. 6),
  where ``d`` is the graph distance from the root qubit on the device's
  architecture graph (Fig. 4).

The product ``F(t, d) = T(t) S(d)`` (Eq. 7) gives, per qubit, the
probability that each gate acting on it is followed by a non-unitary
reset.  :class:`RadiationEvent` turns a root qubit plus an architecture
graph into per-time-sample probability vectors;
:class:`RadiationChannel` injects the corresponding resets.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Gate, GateType
from .base import RESET, NoiseChannel, SiteTable

#: Paper defaults.
DEFAULT_GAMMA = 10.0
DEFAULT_SPATIAL_N = 1.0
DEFAULT_NUM_SAMPLES = 10


def temporal_decay(t, gamma: float = DEFAULT_GAMMA):
    """``T(t) = exp(-gamma t)`` (Eq. 5); accepts scalars or arrays."""
    return np.exp(-gamma * np.asarray(t, dtype=float))


def sample_times(num_samples: int = DEFAULT_NUM_SAMPLES) -> np.ndarray:
    """The ``n_s`` equidistant sample instants of the step function T̂.

    Samples span the full window including the strike instant ``t = 0``
    (root injection probability 100%, Fig. 5's time axis) and the end of
    the normalised window ``t = 1``.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if num_samples == 1:
        return np.zeros(1)
    return np.linspace(0.0, 1.0, num_samples)


def stepped_temporal_decay(t, gamma: float = DEFAULT_GAMMA,
                           num_samples: int = DEFAULT_NUM_SAMPLES):
    """The step approximation T̂(t): piecewise-constant between samples."""
    ts = sample_times(num_samples)
    t = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, num_samples - 1)
    return temporal_decay(ts[idx], gamma)


def spatial_damping(d, n: float = DEFAULT_SPATIAL_N):
    """``S(d) = n^2 / (d + n)^2`` (Eq. 6); ``d`` scalar or array."""
    d = np.asarray(d, dtype=float)
    return (n ** 2) / ((d + n) ** 2)


def transient_decay(t, d, gamma: float = DEFAULT_GAMMA,
                    n: float = DEFAULT_SPATIAL_N):
    """``F(t, d) = T(t) S(d)`` (Eq. 7)."""
    return temporal_decay(t, gamma) * spatial_damping(d, n)


class RadiationEvent:
    """A single particle strike bound to an architecture graph.

    Parameters
    ----------
    root_qubit:
        Physical qubit at the impact point.
    distances:
        Mapping (or vector) of graph distances from the root to every
        physical qubit.  Build it from an
        :class:`~repro.arch.graph.ArchitectureGraph` via
        :meth:`distances_from`; qubits missing from the mapping are
        treated as unreachable (probability 0).
    num_qubits:
        Width of the physical register.
    gamma, n, num_samples:
        Model parameters (paper defaults).
    spread:
        When False the fault stays confined to the root qubit — the
        "erasure, no spatial expansion" configuration of Figs. 6-7.
    """

    def __init__(self, root_qubit: int, distances, num_qubits: int,
                 gamma: float = DEFAULT_GAMMA,
                 n: float = DEFAULT_SPATIAL_N,
                 num_samples: int = DEFAULT_NUM_SAMPLES,
                 spread: bool = True) -> None:
        self.root_qubit = int(root_qubit)
        self.num_qubits = int(num_qubits)
        self.gamma = float(gamma)
        self.n = float(n)
        self.num_samples = int(num_samples)
        self.spread = bool(spread)
        dist = np.full(self.num_qubits, np.inf)
        if isinstance(distances, dict):
            for q, d in distances.items():
                if not 0 <= int(q) < self.num_qubits:
                    raise ValueError(
                        f"distance entry for qubit {q} outside the "
                        f"{self.num_qubits}-qubit register; pass the "
                        f"architecture's qubit count (transpile first)")
                dist[int(q)] = float(d)
        else:
            arr = np.asarray(distances, dtype=float)
            if arr.size > self.num_qubits:
                raise ValueError(
                    f"{arr.size} distances for a {self.num_qubits}-qubit "
                    f"register; pass the architecture's qubit count")
            dist[: arr.size] = arr
        if not np.isfinite(dist[self.root_qubit]) or dist[self.root_qubit] != 0.0:
            dist[self.root_qubit] = 0.0
        self.distances = dist

    @classmethod
    def from_positions(cls, root_qubit: int,
                       positions: Dict[int, tuple],
                       **kwargs) -> "RadiationEvent":
        """Build an event over a planar half-step embedding (see
        :meth:`repro.codes.base.StabilizerCode.qubit_positions`):
        device distance is Manhattan distance over two half-steps."""
        root = positions[root_qubit]
        distances = {q: (abs(p[0] - root[0]) + abs(p[1] - root[1])) / 2.0
                     for q, p in positions.items()}
        return cls(root_qubit, distances,
                   num_qubits=max(positions) + 1, **kwargs)

    @property
    def times(self) -> np.ndarray:
        return sample_times(self.num_samples)

    def root_probability(self, sample_index: int) -> float:
        """T(t_k): injection probability at the root for sample ``k``."""
        return float(temporal_decay(self.times[sample_index], self.gamma))

    def qubit_probabilities(self, sample_index: int) -> np.ndarray:
        """Per-qubit reset probability vector at time sample ``k`` (Eq. 7)."""
        t_prob = self.root_probability(sample_index)
        if not self.spread:
            probs = np.zeros(self.num_qubits)
            probs[self.root_qubit] = t_prob
            return probs
        with np.errstate(divide="ignore"):
            s = spatial_damping(self.distances, self.n)
        s[~np.isfinite(self.distances)] = 0.0
        return t_prob * s

    def channel(self, sample_index: int) -> "RadiationChannel":
        return RadiationChannel(self.qubit_probabilities(sample_index))

    def burst(self, strike_round: int, measures_per_round: int,
              scale: float = 1.0) -> "RadiationBurst":
        """A round-resolved channel: the strike lands at syndrome round
        ``strike_round`` and decays one temporal sample per round."""
        return RadiationBurst(self, strike_round, measures_per_round,
                              scale=scale)

    def __repr__(self) -> str:
        return (f"RadiationEvent(root={self.root_qubit}, gamma={self.gamma}, "
                f"n={self.n}, ns={self.num_samples}, spread={self.spread})")


class RadiationChannel(NoiseChannel):
    """Reset-after-gate channel with a per-qubit probability vector.

    Models the decoherence forced by quasiparticle poisoning: each gate
    acting on qubit ``q`` is followed by a non-unitary reset of ``q``
    with probability ``probs[q]`` (paper §III-B).  Fires after *every*
    operation type, since the underlying physical process is always
    active while the circuit runs.
    """

    def __init__(self, probs: Sequence[float]) -> None:
        self.probs = np.asarray(probs, dtype=float)
        if self.probs.ndim != 1:
            raise ValueError("probs must be a 1-D vector")
        if ((self.probs < 0) | (self.probs > 1)).any():
            raise ValueError("probabilities must lie in [0, 1]")

    def site_table(self, num_qubits: int) -> SiteTable:
        return self.build_table(RESET, self.probs, num_qubits)

    def __repr__(self) -> str:
        hot = np.nonzero(self.probs > 0)[0]
        return f"RadiationChannel({hot.size} affected qubits)"


class RadiationBurst(NoiseChannel):
    """A strike that *begins* mid-run and decays round by round.

    :class:`RadiationChannel` freezes the transient at one temporal
    sample for the whole circuit — the paper's per-sample sweep.  The
    burst instead models the streaming-detection scenario: the circuit
    runs clean until syndrome round ``strike_round``, then each later
    round ``r`` applies the per-qubit reset probabilities of temporal
    sample ``r - strike_round`` (Eq. 7), clamped to the last sample once
    the window is exhausted (``T(1) = e^-gamma``, negligible at the
    paper's ``gamma = 10``).

    The channel tracks its position in the circuit by counting
    measurement gates through the :meth:`observe` hook — a syndrome
    round ends with its block of ``measures_per_round`` ancilla
    measurements, so the count is robust to transpilation (routing
    preserves measurements) and needs no circuit annotations.
    :meth:`begin_run` rewinds the count, and every executor walk calls
    it, so one channel instance serves any number of runs.
    """

    def __init__(self, event: RadiationEvent, strike_round: int,
                 measures_per_round: int, scale: float = 1.0) -> None:
        if strike_round < 0:
            raise ValueError("strike_round must be non-negative")
        if measures_per_round < 1:
            raise ValueError("need at least one measurement per round")
        if not 0.0 <= scale <= 1.0:
            raise ValueError("scale must lie in [0, 1]")
        self.event = event
        self.strike_round = int(strike_round)
        self.measures_per_round = int(measures_per_round)
        #: Deposited-energy scale: multiplies every reset probability.
        #: 1.0 is the paper's full-intensity strike; smaller values
        #: model weaker impacts (the detection-ROC intensity axis).
        self.scale = float(scale)
        #: Row ``k``: per-qubit reset probabilities of temporal sample k.
        self.probs = self.scale * np.stack(
            [event.qubit_probabilities(k)
             for k in range(event.num_samples)])
        self._measures_seen = 0

    # -- position tracking ---------------------------------------------
    def begin_run(self) -> None:
        super().begin_run()
        self._measures_seen = 0

    def observe(self, gate: Gate) -> None:
        if gate.gate_type is GateType.MEASURE:
            self._measures_seen += 1

    @property
    def current_round(self) -> int:
        """Syndrome rounds completed at the current circuit position."""
        return self._measures_seen // self.measures_per_round

    def current_sample(self) -> Optional[int]:
        """The temporal sample (row of :attr:`probs`) in force now, or
        ``None`` pre-strike."""
        k = self.current_round - self.strike_round
        if k < 0:
            return None
        return min(k, self.probs.shape[0] - 1)

    def current_probs(self) -> Optional[np.ndarray]:
        """Per-qubit reset probabilities now, or ``None`` pre-strike."""
        k = self.current_sample()
        return None if k is None else self.probs[k]

    # -- channel interface ---------------------------------------------
    def site_table(self, num_qubits: int) -> SiteTable:
        return self.build_table(
            RESET, self.probs, num_qubits,
            gating=(self.strike_round, self.measures_per_round),
            row=self.current_sample)

    def __repr__(self) -> str:
        return (f"RadiationBurst(root={self.event.root_qubit}, "
                f"strike_round={self.strike_round}, "
                f"mpr={self.measures_per_round})")
