"""Tilted Bernoulli sampling for the batched-tableau backend.

The frame backend tilts depolarizing sites inside
:class:`~repro.frames.simulator.FrameSimulator` (the sites are compiled
ops there).  On the tableau path noise fires through live
:class:`~repro.noise.base.NoiseChannel` objects instead, so tilting
means swapping every intrinsic :class:`DepolarizingNoise` channel for a
:class:`TiltedDepolarizingNoise` that samples at the boosted
probability and banks each shot's exact log-likelihood ratio in a
shared :class:`WeightSink`.  Fault channels (radiation, erasure) are
left untouched for the same reason the frame path leaves
``OP_RESET_NOISE`` alone: the strike is the campaign's *condition*, not
its rare event.

Both backends therefore tilt the identical set of sites with the
identical clamp rule — only the underlying random streams differ, as
they already do between backends.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..noise.base import NoiseModel
from ..noise.depolarizing import DepolarizingNoise
from .sampler import SamplerSpec


class WeightSink:
    """Per-batch accumulator for tilted shots' log-likelihood ratios.

    One sink is shared by every tilted channel of a noise model; the
    executor resets it before each block and reads the finished
    weights after.
    """

    def __init__(self) -> None:
        self.log_w: Optional[np.ndarray] = None

    def reset(self, batch_size: int) -> None:
        self.log_w = np.zeros(int(batch_size), dtype=np.float64)

    def weights(self) -> np.ndarray:
        if self.log_w is None:
            raise RuntimeError("WeightSink.reset was never called")
        return np.exp(self.log_w)


class TiltedDepolarizingNoise(DepolarizingNoise):
    """A depolarizing channel sampled at ``q`` while modelling ``p``.

    Draws the same one uniform per (gate, qubit) as the plain channel,
    fires at the tilted probability, and adds ``log(p/q)`` /
    ``log((1-p)/(1-q))`` per shot to the sink.  The Pauli arm split
    stays uniform (``q/3`` each), so the likelihood ratio depends only
    on whether the site fired.
    """

    def __init__(self, p: float, q: float, sink: WeightSink,
                 **kwargs) -> None:
        super().__init__(p, **kwargs)
        if not p <= q < 1.0:
            raise ValueError("tilted probability must satisfy p <= q < 1")
        self.q = float(q)
        self.sink = sink
        self._llr_hit = math.log(p / q) if q > p else 0.0
        self._llr_miss = math.log((1.0 - p) / (1.0 - q)) if q > p else 0.0

    def apply_batch(self, gate, sim, rng: np.random.Generator) -> None:
        B = sim.batch_size
        third = self.q / 3.0
        _, qubits = self.walk_table(sim.n).sites_after(gate)
        for qubit in qubits:
            u = rng.random(B)
            if self.q > self.p:
                self.sink.log_w += np.where(u < self.q, self._llr_hit,
                                            self._llr_miss)
            mx = u < third
            my = (u >= third) & (u < 2 * third)
            mz = (u >= 2 * third) & (u < self.q)
            if mx.any():
                sim.x_gate(qubit, mx)
            if my.any():
                sim.y_gate(qubit, my)
            if mz.any():
                sim.z_gate(qubit, mz)

    def __repr__(self) -> str:
        return (f"TiltedDepolarizingNoise(p={self.p!r}, q={self.q!r})")


def tilted_probability(p: float, sampler: SamplerSpec) -> float:
    """The clamp rule shared by both backends: at most the spec's cap,
    but **never below the nominal ``p``** — a site whose nominal
    probability already exceeds the cap samples at ``p`` (plain MC for
    that site, zero likelihood ratio) rather than *under*-sampling the
    tail, which the sampler spec forbids."""
    return max(p, min(sampler.tilt * p, sampler.p_cap))


def tilted_noise_model(noise: NoiseModel, sampler: SamplerSpec
                       ) -> Tuple[NoiseModel, WeightSink]:
    """Clone a noise model with every intrinsic depolarizing channel
    tilted into a shared :class:`WeightSink`.

    Non-depolarizing channels are shared by reference (they keep their
    own per-run state via ``begin_run``).  Only exact
    :class:`DepolarizingNoise` is tilted: a subclass may define other
    sites than its parent's.
    """
    sink = WeightSink()
    channels = []
    for ch in noise:
        if type(ch) is DepolarizingNoise and ch.p > 0.0:
            q = tilted_probability(ch.p, sampler)
            channels.append(TiltedDepolarizingNoise(
                ch.p, q, sink,
                include_measurements=ch.include_measurements,
                include_resets=ch.include_resets,
                qubits=None if ch.qubits is None else tuple(ch.qubits)))
        else:
            channels.append(ch)
    return NoiseModel(channels), sink
