"""Bit-packed Pauli-frame simulator.

Instead of evolving ``B`` full stabilizer tableaus, the frame simulator
tracks — per shot — only the *Pauli difference* between the noisy run
and a single noiseless reference run (Gidney, "Stim: a fast stabilizer
circuit simulator", 2021).  The X and Z frame components of each qubit
are stored bit-packed across shots (64 shots per ``uint64`` word), so
every gate, noise sample and measurement is a handful of whole-array
bitwise ops on ``(num_qubits, ceil(B/64))`` words: memory and work per
gate shrink from ``O(B * n)`` tableau rows to ``O(B / 64)`` words.

Sampling is exact in distribution for any Clifford+measure+reset
circuit because the Z frame is drawn uniformly at random at
initialisation and re-randomised by resets and measurements: a uniform
Z product stabilises |0...0> (so the state is untouched), but once
rotated through the circuit it supplies exactly the per-shot randomness
— with the right cross-measurement correlations — that random-branch
measurements require.  Deterministic reference measurements are never
perturbed by it (their ``Z`` commutes with the whole stabilizer group),
so noiseless records match the reference bit-for-bit.  Noise enters
through the lowered ops of a :class:`~repro.frames.program.FrameProgram`
(see that module for exactness notes on reset faults).

**Lanes.**  The shot axis is cut into *lanes*, each with its own
generator: the lane is the unit of randomness, the simulator the unit
of execution.  Every op that draws (``__init__``'s Z fill, measures,
resets, depolarize sites and fault resets) makes, lane by lane,
exactly the generator calls a one-lane simulator of that lane's size
makes, in the same order, and writes them to that lane's word columns;
everything else — the Cliffords, the op loop, the record writes — runs
once over the whole ``(n, W)`` arrays.  So a lane's record words, weights
and final generator state do not depend on which lanes ran beside it,
and ``FrameSimulator(n, B, rng=g)`` is simply the one-lane case.  The
campaign engine runs a span of canonical 512-shot blocks as the lanes
of one simulator: per-op interpreter and dispatch cost is paid once
per span instead of once per block.

**Executor.**  :meth:`FrameSimulator.run_packed` runs a program on the
native op loop (``_kernel.c``, :mod:`repro.frames._native`).  Its
oracle, a numpy handler per op, lives with the tests, which hold the
two equal bit for bit: records, frames, weights and every lane's
generator state.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .packing import WORD_BITS, random_words, unpack_words, words_for
from .program import CODE_HEADER, FrameProgram

from .. import obs
from ..obs import prof as _prof

_OBS_BLOCKS = obs.counter("frames.blocks")
_OBS_OPS = obs.counter("frames.ops")
_OBS_FUSED = obs.counter("frames.fused_ops")
_OBS_SITES = obs.counter("frames.depolarize_sites")
_OBS_HITS = obs.counter("frames.depolarize_hits")


def _fold_sample(stats, seconds, calls, widths) -> None:
    """Add one sampled execution's per-opcode seconds, calls and fused
    width beyond the call to the profiler's opcode-indexed buckets."""
    for st, dt, n, extra in zip(stats, seconds, calls, widths):
        if n:
            st.total_s += dt
            st.count += n
            st.ops += n + extra


class _Lane(NamedTuple):
    """One generator's share of the shot axis."""

    rng: np.random.Generator
    start: int      # first shot
    shots: int
    lo: int         # word columns [lo, hi)
    hi: int


class FrameSimulator:
    """X/Z Pauli frames for ``batch_size`` shots, bit-packed in uint64.

    Parameters
    ----------
    num_qubits:
        Register width ``n``.
    batch_size:
        Number of shots ``B`` (64 per word) — or a sequence of lane
        sizes, one per generator in ``rng`` (module docstring).  Every
        lane but the last must be a whole number of words, so shots
        stay contiguous; :attr:`batch_size` is then their sum.
    rng:
        Generator (or int seed) driving the Z-frame randomisation and
        every lowered noise sampler; a sequence of them, one per lane,
        with a sequence of sizes.  :attr:`rng` is the first lane's.

    Importance sampling is the program's, not the simulator's: a
    program bound with a tilt (:meth:`~repro.frames.program.
    FrameStructure.bind`) samples its depolarize sites at the tilted
    probabilities, and each of its sites carries the log-likelihood
    ratios the shots bank in :attr:`log_weights` — a per-shot float row
    riding alongside the packed X/Z frames, allocated by the first run
    of a tilted program.
    """

    def __init__(self, num_qubits: int,
                 batch_size: Union[int, Sequence[int]],
                 rng: Union[np.random.Generator, int, None,
                            Sequence[Union[np.random.Generator, int]]] = None
                 ) -> None:
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        n = int(num_qubits)
        if isinstance(batch_size, (list, tuple)):
            sizes, rngs = [int(b) for b in batch_size], list(rng)
        else:
            sizes, rngs = [int(batch_size)], [rng]
        if len(sizes) != len(rngs):
            raise ValueError("need one generator per lane")
        if any(size % WORD_BITS for size in sizes[:-1]):
            raise ValueError("every lane but the last must hold a whole "
                             f"number of {WORD_BITS}-shot words")
        lanes, start = [], 0
        for size, lane_rng in zip(sizes, rngs):
            if lane_rng is None or isinstance(lane_rng, (int, np.integer)):
                lane_rng = np.random.default_rng(lane_rng)
            lo = start // WORD_BITS
            lanes.append(_Lane(lane_rng, start, size, lo,
                               lo + words_for(size)))
            start += size
        self._lanes = lanes
        self.n = n
        self.batch_size = start
        self.num_words = lanes[-1].hi
        #: Per-shot accumulated log-likelihood-ratio weights (tilted
        #: programs only; ``None`` — and zero overhead — otherwise).
        self.log_weights: Optional[np.ndarray] = None
        self.rng = lanes[0].rng
        self.x = np.zeros((n, self.num_words), dtype=np.uint64)
        # Uniformly random initial Z frame: stabilises |0...0>, feeds the
        # random-measurement branches downstream (module docstring).  One
        # (n, W) draw per lane: the generator streams identically whether
        # pulled per row or in one call, so the sampled frames match the
        # historical per-qubit loop bit-for-bit.
        self.z = self._random_rows(n)
        #: Depolarize [rows drawn, hits], counted per lane — of the
        #: last :meth:`run_packed`, or since construction before one.
        self.depolarize_stats = [0, 0]

    def _random_rows(self, k: int) -> np.ndarray:
        """``(k, W)`` fresh random words: each lane's columns are one
        ``k * W_lane``-word draw from its own generator — the call a
        lone block of that size makes."""
        lanes = self._lanes
        if len(lanes) == 1:
            return random_words(lanes[0].rng,
                                k * self.num_words).reshape(k, -1)
        out = np.empty((k, self.num_words), dtype=np.uint64)
        for rng, _, _, lo, hi in lanes:
            out[:, lo:hi] = random_words(rng, k * (hi - lo)).reshape(k, -1)
        return out

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------
    def run_packed(self, program: FrameProgram, start: int = 0,
                   stop: Optional[int] = None,
                   record_words: Optional[np.ndarray] = None) -> np.ndarray:
        """Execute a compiled program; returns record *words*.

        The ``(num_cbits, W)`` uint64 result is the backend's native
        output: cbit ``c``'s per-shot outcomes bit-packed 64 shots per
        word.  Frame-native consumers (the :mod:`repro.detect` streaming
        detector) reduce these words directly — popcount, bit-sliced
        counters, whole-word XOR — without ever materialising per-shot
        uint8 records.

        ``start``/``stop`` run only ops ``start .. stop`` (indices of
        ``program.ops``, each op's first word in ``code``), into
        ``record_words`` if given: no draw spans two ops, so a range
        draws what it draws inside the whole program, and the splitting
        sampler (:mod:`repro.rare.split`) runs a program segment by
        segment, resampling the batch between segments.  The range that
        ends the program counts the block.
        """
        if program.num_qubits > self.n:
            raise ValueError("program wider than simulator register")
        start, stop, _ = slice(start, stop).indices(len(program.ops))
        shape = (program.num_cbits, self.num_words)
        if record_words is None:
            record_words = np.zeros(shape, dtype=np.uint64)
        elif (record_words.shape != shape or record_words.dtype != np.uint64
              or not record_words.flags.c_contiguous):
            raise ValueError(f"record_words must be C-ordered uint64 "
                             f"{shape} words")
        if program.log_ratios is not None and self.log_weights is None:
            self.log_weights = np.zeros(self.batch_size)
        self._check_native(program)
        self.depolarize_stats = [0, 0]
        self._exec_native(program, start, stop, record_words)
        if stop == len(program.ops):
            _OBS_BLOCKS.inc(len(self._lanes))
            _OBS_OPS.inc(len(program.ops))
            _OBS_FUSED.inc(program.fused_ops)
        _OBS_SITES.inc(self.depolarize_stats[0])
        _OBS_HITS.inc(self.depolarize_stats[1])
        return record_words

    def _check_native(self, program: FrameProgram) -> None:
        """``ValueError`` unless the native executor can run
        ``program`` here: it needs the program's ``code``, C-ordered
        arrays of the bounds the stream was encoded under (it indexes
        unchecked and works in place), and 64-bit raw draws — not
        ``MT19937``'s 32-bit ones (:func:`~repro.frames.packing.
        random_words`)."""
        code, prob, llr = program.code, program.probabilities, \
            program.log_ratios
        if code is None or prob is None:
            raise ValueError("program has no native code: bind it from a "
                             "frame structure")
        num_qubits, num_cbits, num_sites = code[:CODE_HEADER].tolist()
        if (code.dtype != np.int64 or prob.dtype != np.float64
                or not (code.flags.c_contiguous and prob.flags.c_contiguous)
                or num_qubits > self.n or num_cbits > program.num_cbits
                or num_sites > prob.size
                or (llr is not None and (
                    llr.dtype != np.float64 or llr.shape != (2, prob.size)
                    or not llr.flags.c_contiguous))):
            raise ValueError("program.code does not fit the program's "
                             "probabilities, record or this simulator")
        if any(isinstance(lane.rng.bit_generator, np.random.MT19937)
               for lane in self._lanes):
            raise ValueError("the native executor draws 64-bit raw words: "
                             "MT19937 lanes are not supported")
        words = (self.n, self.num_words)
        arrays = [(self.x, words, np.uint64), (self.z, words, np.uint64)]
        if llr is not None:
            arrays.append((self.log_weights, (self.batch_size,), np.float64))
        for array, shape, dtype in arrays:
            if (array.shape != shape or array.dtype != dtype
                    or not array.flags.c_contiguous):
                raise ValueError(f"frame arrays must be C-ordered "
                                 f"{np.dtype(dtype)} {shape}")

    def _exec_native(self, program: FrameProgram, start: int, stop: int,
                     record_words: np.ndarray) -> None:
        """Ops ``start .. stop`` as one foreign call (``_kernel.c``),
        profiled: every execution contributes its wall time, a sampled
        one has the kernel clock its opcode runs into the profiler's
        buckets."""
        from . import _native   # first sample, not ``import repro``

        kernel = _native.kernel()
        prof = _prof._ACTIVE
        stats, sampled = prof.begin_block() if prof else (None, False)
        t_blk = perf_counter()
        self.depolarize_stats, acc = kernel(
            program.code[CODE_HEADER:], start, stop, program.probabilities,
            program.log_ratios, self.log_weights,
            self.x, self.z, record_words,
            [(lane.shots, lane.lo, lane.hi) for lane in self._lanes],
            [lane.rng.bit_generator for lane in self._lanes], sampled)
        if prof is not None:
            if sampled:
                k = len(acc) // 3
                _fold_sample(stats, acc[:k], map(int, acc[k:2 * k]),
                             map(int, acc[2 * k:]))
            prof.end_block(perf_counter() - t_blk)

    def shot_weights(self) -> np.ndarray:
        """Per-shot importance weights ``exp(log_weights)`` (unit
        weights when no tilted site ran)."""
        if self.log_weights is None:
            return np.ones(self.batch_size, dtype=np.float64)
        return np.exp(self.log_weights)

    def run(self, program: FrameProgram) -> np.ndarray:
        """Execute a compiled program; returns records ``(B, cbits)``.

        The record layout matches the tableau backend's
        (:func:`repro.noise.executor.run_batch_noisy`), so decoders and
        experiments consume either backend's output unchanged.  Use
        :meth:`run_packed` to keep the records in the packed domain.
        """
        return np.ascontiguousarray(
            unpack_words(self.run_packed(program), self.batch_size).T)

    # ------------------------------------------------------------------
    # Introspection (tests / debugging)
    # ------------------------------------------------------------------
    def frame_bits(self, qubit: int) -> np.ndarray:
        """``(2, B)`` uint8: the X and Z frame bits of one qubit."""
        return unpack_words(
            np.stack([self.x[qubit], self.z[qubit]]), self.batch_size)
