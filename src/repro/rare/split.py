"""Multilevel splitting over a compiled frame program.

Deep-tail logical failures need several independent physical faults to
line up; almost every plain-MC shot wastes its decode on a trajectory
that was never going to fail.  Splitting redistributes the batch toward
dangerous trajectories *mid-flight*: at a few syndrome-round boundaries
the executor scores every shot by its accumulated syndrome detection
events (the importance function — more events means closer to decoder
failure), then **resamples the batch lanes** with selection weight
``base ** events`` using one systematic low-variance draw.  Shots that
crossed the level threshold are cloned into many lanes; quiet shots
survive occasionally with boosted weight.  Each child lane's importance
weight is discounted by the exact selection likelihood ratio
``mean(g) / g(parent)``, so the weighted estimator stays unbiased:

    E[ sum_children w_child f(child) ] = sum_parents w_parent f(parent)

for any per-lane functional ``f`` — killing is never outright (every
parent keeps positive selection probability), which is what makes the
scheme safe even though logical failure is not a monotone function of
mid-circuit syndrome weight.

Everything is batch-native: lanes live bit-packed in the simulator's
X/Z frame words, cloning is a gather of bit columns, and the one
uniform per level comes from the block's deterministic rng stream — a
block's splitting history is a pure function of the task seed and the
block index, preserving the engine's chunking/resume/worker-count
bit-identity contract.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..codes.base import MemoryExperiment
from ..decoders.batch import detector_words
from ..frames.packing import column_counts, pack_bool_rows, unpack_words
from ..frames.program import OP_MEASURE, OP_MEASURE_LAYER, FrameProgram
from ..frames.simulator import FrameSimulator
from .sampler import SamplerSpec

#: Detection-event exponent clamp: ``base ** score`` must stay finite
#: and one runaway lane must not absorb the whole batch.
MAX_SCORE = 48


def _measured_cbits(code: List[int], at: int) -> List[int]:
    """The cbits the op at word ``at`` of ``code`` measures."""
    if code[at] == OP_MEASURE:
        return [code[at + 2]]
    if code[at] == OP_MEASURE_LAYER:
        k = code[at + 1]
        return code[at + 2 + k:at + 2 + 2 * k]
    return []


def split_points(program: FrameProgram, experiment: MemoryExperiment,
                 levels: int) -> List[Tuple[int, int]]:
    """Choose ``(op_index, rounds_done)`` resampling boundaries.

    A boundary sits directly after the op that completes a syndrome
    round (every cbit of that round's plaquette tables measured, both
    bases); at most ``levels`` boundaries are kept, evenly spaced over
    the interior rounds — the final round is never a boundary (there is
    nothing left to redistribute toward).  Any op index is a valid cut
    (:meth:`FrameSimulator.run_packed` runs op ranges), so the boundary
    is placed for the science alone: once the round's last measure has
    written its record bits.
    """
    tables = [np.asarray(t, dtype=np.intp)
              for t in (experiment.z_syndrome_cbits,
                        experiment.x_syndrome_cbits)
              if t and t[0]]
    rounds = experiment.rounds
    if rounds < 2 or not tables:
        return []
    round_cbits = [set() for _ in range(rounds)]
    for table in tables:
        for r in range(min(rounds, table.shape[0])):
            round_cbits[r].update(int(c) for c in table[r])
    boundaries: List[Tuple[int, int]] = []   # (op_index, rounds_done)
    measured: set = set()
    want = 0
    code = program.code.tolist()
    for i, at in enumerate(program.ops.tolist()):
        measured.update(_measured_cbits(code, at))
        while want < rounds - 1 and round_cbits[want] <= measured:
            boundaries.append((i + 1, want + 1))
            want += 1
    if not boundaries:
        return []
    levels = max(1, min(int(levels), len(boundaries)))
    idx = np.linspace(0, len(boundaries) - 1, levels)
    picked = sorted({int(round(i)) for i in idx})
    return [boundaries[i] for i in picked]


def _event_scores(record_words: np.ndarray, experiment: MemoryExperiment,
                  rounds_done: int, batch_size: int) -> np.ndarray:
    """Per-shot syndrome detection events over the first
    ``rounds_done`` rounds, both plaquette bases — the same events the
    streaming detector and the decoders see."""
    planes = [detector_words(experiment, record_words, basis)[:rounds_done]
              .reshape(-1, record_words.shape[-1]) for basis in "ZX"]
    return column_counts(np.concatenate(planes, axis=0), batch_size)


def systematic_parents(g: np.ndarray, u0: float) -> np.ndarray:
    """Systematic resampling: ``B`` children from selection weights
    ``g`` using one uniform offset ``u0`` in [0, 1).

    Child ``k`` picks the parent whose cumulative-weight interval
    contains ``(u0 + k) * mean(g)`` — expected clone counts are exactly
    ``B * g / sum(g)``, with single-draw (minimal) variance.
    """
    B = g.size
    cum = np.cumsum(g)
    positions = (float(u0) + np.arange(B)) * (cum[-1] / B)
    parents = np.searchsorted(cum, positions, side="right")
    return np.minimum(parents, B - 1)


def _gather_columns(words: np.ndarray, parents: np.ndarray,
                    batch_size: int) -> np.ndarray:
    """Clone packed shot columns: ``out[:, k] = words[:, parents[k]]``
    in bit-column space."""
    bits = unpack_words(words, batch_size)
    return pack_bool_rows(np.ascontiguousarray(bits[:, parents]))


def run_split_packed(sim: FrameSimulator, program: FrameProgram,
                     experiment: MemoryExperiment, sampler: SamplerSpec
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Execute ``program`` with multilevel splitting; returns
    ``(record_words, per-shot weights)``.

    The program runs segment by segment; at each level boundary the
    batch is scored, systematically resampled toward high-event lanes,
    and every cloned lane's log-weight discounted by its selection
    ratio.  The X/Z frames, the measurement record so far, and the
    accumulated log-weights are all gathered consistently, so a child
    lane is a faithful copy of its parent's whole trajectory.
    """
    points = split_points(program, experiment, sampler.levels)
    record_words = None
    B = sim.batch_size
    log_w = np.zeros(B, dtype=np.float64)
    pos = 0
    for op_index, rounds_done in points:
        record_words = sim.run_packed(program, pos, op_index, record_words)
        pos = op_index
        scores = _event_scores(record_words, experiment, rounds_done, B)
        g = np.power(float(sampler.base),
                     np.minimum(scores, MAX_SCORE).astype(np.float64))
        u0 = sim.rng.random()
        parents = systematic_parents(g, u0)
        log_mult = np.log(g.mean()) - np.log(g[parents])
        sim.x = _gather_columns(sim.x, parents, B)
        sim.z = _gather_columns(sim.z, parents, B)
        record_words = _gather_columns(record_words, parents, B)
        log_w = log_w[parents] + log_mult
    record_words = sim.run_packed(program, pos, None, record_words)
    return record_words, np.exp(log_w)
