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
of execution.  Every op that draws (``__init__``'s Z fill,
``measure``/``measure_layer``, ``reset``, ``depolarize``/
``depolarize_layer``, ``reset_noise``) makes, lane by lane, exactly
the generator calls a one-lane simulator of that lane's size makes, in
the same order, and writes them to that lane's word columns;
everything else — the Cliffords, the op loop, the record writes — runs
once over the whole ``(n, W)`` arrays.  So a lane's record words, weights
and final generator state do not depend on which lanes ran beside it,
and ``FrameSimulator(n, B, rng=g)`` is simply the one-lane case.  The
campaign engine runs a span of canonical 512-shot blocks as the lanes
of one simulator: per-op interpreter and dispatch cost is paid once
per span instead of once per block.

**Executors.**  :meth:`FrameSimulator.run_packed` runs a program on the
native op loop (``_kernel.c``, :mod:`repro.frames._native`) wherever
it is built, and otherwise on this module's numpy handlers — the plain
reference, one handler call per op, that the native loop must match
bit for bit: records, frames, weights and every lane's generator state.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .packing import (
    FULL_WORD,
    WORD_BITS,
    bernoulli_words,
    pack_bool_rows,
    random_words,
    unpack_words,
    words_for,
)
from .program import (
    CODE_HEADER,
    LAYER_OPS,
    OP_CX,
    OP_CX_LAYER,
    OP_CZ,
    OP_CZ_LAYER,
    OP_DEPOLARIZE,
    OP_DEPOLARIZE_LAYER,
    OP_H,
    OP_H_LAYER,
    OP_MEASURE,
    OP_MEASURE_LAYER,
    OP_RESET,
    OP_RESET_LAYER,
    OP_RESET_NOISE,
    OP_S,
    OP_S_LAYER,
    OP_SWAP,
    OP_SWAP_LAYER,
    FrameProgram,
)

from .. import obs
from ..obs import prof as _prof

_OBS_BLOCKS = obs.counter("frames.blocks")
_OBS_NATIVE = obs.counter("frames.native_blocks")
_OBS_NUMPY = obs.counter("frames.numpy_blocks")
_OBS_OPS = obs.counter("frames.ops")
_OBS_FUSED = obs.counter("frames.fused_ops")
_OBS_SITES = obs.counter("frames.depolarize_sites")
_OBS_HITS = obs.counter("frames.depolarize_hits")

#: A Clifford operand: one qubit, or a fused layer's disjoint qubits.
Qubits = Union[int, np.ndarray]

#: Opcode -> handler method, the one dispatch table (plain and
#: profiled): an op executes as ``handler(*op[1:])``.
_HANDLER = {
    OP_H: "h", OP_H_LAYER: "h", OP_S: "s", OP_S_LAYER: "s",
    OP_CX: "cx", OP_CX_LAYER: "cx", OP_CZ: "cz", OP_CZ_LAYER: "cz",
    OP_SWAP: "swap", OP_SWAP_LAYER: "swap",
    OP_MEASURE: "_measure_into", OP_MEASURE_LAYER: "_measure_layer_into",
    OP_RESET: "reset", OP_RESET_LAYER: "reset",
    OP_RESET_NOISE: "reset_noise",
    OP_DEPOLARIZE: "depolarize", OP_DEPOLARIZE_LAYER: "depolarize_layer"}


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
        self._record = None    # _exec_numpy's record words, for measures
        self._handlers = [getattr(self, _HANDLER[code])
                          for code in range(len(_HANDLER))]

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
    # Frame propagation (conjugation by the ideal Cliffords).  Every
    # operand is a qubit index or — for a fused layer — an index array
    # of pairwise-disjoint qubits (the compiler guarantees
    # disjointness), so the fancy-indexed whole-layer op matches the
    # gate-by-gate semantics exactly; no rng is involved.
    # ------------------------------------------------------------------
    def h(self, a: Qubits) -> None:
        tmp = self.x[a].copy()
        self.x[a] = self.z[a]
        self.z[a] = tmp

    def s(self, a: Qubits) -> None:
        self.z[a] ^= self.x[a]

    def cx(self, c: Qubits, t: Qubits) -> None:
        self.x[t] ^= self.x[c]
        self.z[c] ^= self.z[t]

    def cz(self, a: Qubits, b: Qubits) -> None:
        self.z[a] ^= self.x[b]
        self.z[b] ^= self.x[a]

    def swap(self, a: Qubits, b: Qubits) -> None:
        self.x[[a, b]] = self.x[[b, a]]
        self.z[[a, b]] = self.z[[b, a]]

    def measure_layer(self, qs: np.ndarray, refs: np.ndarray) -> np.ndarray:
        """Fused Z-measure of disjoint qubits; returns ``(k, W)`` words.

        Bit-identical to ``k`` scalar :meth:`measure` calls: reads
        precede the Z re-randomisation (which never touches X), and the
        one block draw equals the per-qubit draws concatenated.
        """
        out = self.x[qs].copy()
        out[refs.astype(bool)] ^= FULL_WORD
        self.z[qs] ^= self._random_rows(len(qs))
        return out

    # ------------------------------------------------------------------
    # Non-unitary ops
    # ------------------------------------------------------------------
    def measure(self, a: int, reference_bit: int) -> np.ndarray:
        """Z-measure ``a``: per-shot outcome words (reference XOR X frame).

        The Z frame of the measured qubit is re-randomised: collapse
        destroys the phase coherence the old Z component tracked, and
        the fresh randomness decorrelates later basis-changed
        measurements exactly as physics does.
        """
        out = self.x[a].copy()
        if reference_bit:
            out ^= FULL_WORD
        self.z[a] ^= self._random_rows(1)[0]
        return out

    def reset(self, a: Qubits) -> None:
        """Circuit reset (present in the reference run too): both runs
        land in |0>, so the X difference vanishes and Z is randomised
        (a layer in one block draw: the per-qubit draws concatenated)."""
        self.x[a] = 0
        rows = self._random_rows(np.size(a))
        self.z[a] = rows if np.ndim(a) else rows[0]

    # ------------------------------------------------------------------
    # Lowered noise ops
    # ------------------------------------------------------------------
    def depolarize(self, a: int, p: float, llr_hit=None,
                   llr_miss=None) -> None:
        """Per-shot X/Y/Z error with probability ``p/3`` each (Eq. 4),
        from one uniform row per lane (:meth:`_depolarize`).

        A site of a tilted program samples at the tilted ``p`` and also
        carries its log-likelihood ratios: each shot banks ``llr_hit``
        if the site fired, else ``llr_miss``, in :attr:`log_weights`
        (nothing when both are 0).
        """
        weighted = bool(llr_hit or llr_miss)
        fired = self._depolarize(slice(a, a + 1), 1, p, weighted)
        if weighted:
            self.log_weights += np.where(fired[0], llr_hit, llr_miss)

    def depolarize_layer(self, qs: np.ndarray, ps: np.ndarray,
                         llr_hit=None, llr_miss=None) -> None:
        """Fused depolarize sites on disjoint qubits; a tilted layer
        sums its rows' ratios per shot, then banks the sum once."""
        fired = self._depolarize(qs, len(qs), ps[:, None],
                                 llr_hit is not None)
        if llr_hit is not None:
            self.log_weights += np.where(fired, llr_hit[:, None],
                                         llr_miss[:, None]).sum(axis=0)

    def _depolarize(self, rows, k: int, p,
                    weighted: bool) -> Optional[np.ndarray]:
        """``k`` sites on frame rows ``rows`` at probability ``p`` (a
        scalar, or a ``(k, 1)`` column): per lane one ``(k, shots)``
        draw — each site's row in turn, the stream of per-site
        ``random(shots)`` calls.  ``u < p`` fires a site: X iff
        ``u < 2p/3``, Z iff ``u >= p/3``; a lane where none fired has
        nothing to flip.  Returns, when ``weighted``, which shots each
        site fired: ``(k, B)``."""
        fired = (np.empty((k, self.batch_size), dtype=bool)
                 if weighted else None)
        hits = 0
        for rng, start, size, lo, hi in self._lanes:
            u = rng.random((k, size))
            hit = u < p
            lane_hits = int(np.count_nonzero(hit))
            if lane_hits:
                hits += lane_hits
                third = p / 3.0
                self.x[rows, lo:hi] ^= pack_bool_rows(u < 2 * third)
                self.z[rows, lo:hi] ^= pack_bool_rows((u >= third) & hit)
            if weighted:
                fired[:, start:start + size] = hit
        self.depolarize_stats[0] += k * len(self._lanes)
        self.depolarize_stats[1] += hits
        return fired

    def reset_noise(self, a: int, p: float,
                    x_value: Optional[int] = None) -> None:
        """Fault reset of ``a`` on a Bernoulli(``p``) subset of shots.

        ``x_value`` is the reference state's definite Z eigenvalue at
        this site (exact lowering: the frame maps the reference onto
        |0>), or ``None`` when the reference is indefinite there — the
        reset then lowers to a full Pauli twirl (reset to the maximally
        mixed state; see :mod:`repro.frames.program`).
        """
        xa, za = self.x[a], self.z[a]
        for rng, _, size, lo, hi in self._lanes:
            mask = bernoulli_words(rng, p, size)
            if not mask.any():
                continue
            # Under the mask the lane's X becomes the reset value and
            # its Z fresh random bits: v ^= (v ^ new) & mask.
            x = xa[lo:hi]
            if x_value is None:
                x ^= (x ^ random_words(rng, hi - lo)) & mask
            elif x_value:
                x |= mask
            else:
                x &= ~mask
            z = za[lo:hi]
            z ^= (z ^ random_words(rng, hi - lo)) & mask

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

        ``start``/``stop`` run only ``program.ops[start:stop]``, into
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
        self.depolarize_stats = [0, 0]
        kernel = self._native_kernel(program)
        if kernel is None:
            self._exec_numpy(program.ops[start:stop], record_words)
        else:
            self._exec_native(kernel, program, start, stop, record_words)
        if stop == len(program.ops):
            blocks = len(self._lanes)
            (_OBS_NUMPY if kernel is None else _OBS_NATIVE).inc(blocks)
            _OBS_BLOCKS.inc(blocks)
            _OBS_OPS.inc(len(program.ops))
            _OBS_FUSED.inc(program.fused_ops)
        _OBS_SITES.inc(self.depolarize_stats[0])
        _OBS_HITS.inc(self.depolarize_stats[1])
        return record_words

    def _native_kernel(self, program: FrameProgram):
        """The native executor when it can run ``program`` here with
        the numpy executor's exact outcome, else ``None``: it knows
        neither ``MT19937``'s 32-bit raw stream
        (:func:`~repro.frames.packing.random_words`), nor a handler a
        subclass overrides, nor the pairwise order numpy sums a tilted
        layer's ratios in on a one-shot batch; and it works on the
        arrays in place."""
        code, prob, llr = program.code, program.probabilities, \
            program.log_ratios
        if (code is None or prob is None or type(self) is not FrameSimulator
                or (llr is not None and self.batch_size == 1)):
            return None
        # The kernel indexes unchecked: hold the arrays it will be
        # handed against the bounds the stream was encoded under.
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
            return None
        shape = (self.n, self.num_words)
        for frame in (self.x, self.z):
            if (frame.shape != shape or frame.dtype != np.uint64
                    or not frame.flags.c_contiguous):
                return None
        lw = self.log_weights
        if llr is not None and (lw.shape != (self.batch_size,)
                                or lw.dtype != np.float64
                                or not lw.flags.c_contiguous):
            return None
        from . import _native   # first sample, not ``import repro``

        return _native.kernel()

    def _exec_native(self, kernel, program: FrameProgram, start: int,
                     stop: int, record_words: np.ndarray) -> None:
        """:meth:`_exec_numpy` of ops ``start .. stop`` as one foreign
        call (``_kernel.c``), profiled like it: every execution
        contributes its wall time, a sampled one has the kernel clock
        its opcode runs into the same buckets."""
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

    def _measure_into(self, a: int, cbit: int, reference_bit: int) -> None:
        self._record[cbit] = self.measure(a, reference_bit)

    def _measure_layer_into(self, qs, cbits, refs) -> None:
        self._record[cbits] = self.measure_layer(qs, refs)

    def _exec_numpy(self, ops, record_words: np.ndarray) -> None:
        """The numpy executor: ``ops`` against ``record_words``, one
        handler call per op.

        With a profiler enabled (``repro perf record``) one execution
        in ``prof.SAMPLE_EVERY`` — a profiler "block", whatever number
        of lanes it carries — additionally reads the clock wherever
        the opcode changes (runs of one opcode share a bucket; fused
        ops count their width as scalar-equivalent ops); every
        execution contributes wall time, and the profiler scales the
        sampled buckets to it at snapshot.  Scalar frame ops are sub-µs
        to a few µs each: clocking every execution would alone break
        the < 2% budget.  Off, the ``None`` check is the entire
        hot-path cost.
        """
        self._record = record_words
        table = self._handlers
        prof = _prof._ACTIVE
        if prof is None:
            for op in ops:
                table[op[0]](*op[1:])
            return
        stats, sampled = prof.begin_block()
        pc = perf_counter
        t_blk = pc()
        if not sampled:
            for op in ops:
                table[op[0]](*op[1:])
            prof.end_block(pc() - t_blk)
            return
        t_acc = [0.0] * len(table)
        c_acc = [0] * len(table)
        w_acc = [0] * len(table)   # fused ops: width beyond the call
        run_code = -1              # sentinel: no opcode run open yet
        run_n = 0
        t_run = t_blk
        for op in ops:
            code = op[0]
            if code != run_code:
                t1 = pc()
                if run_code >= 0:
                    t_acc[run_code] += t1 - t_run
                    c_acc[run_code] += run_n
                t_run = t1
                run_code = code
                run_n = 0
            run_n += 1
            if code in LAYER_OPS:
                w_acc[code] += len(op[1]) - 1
            table[code](*op[1:])
        t_end = pc()
        if run_code >= 0:
            t_acc[run_code] += t_end - t_run
            c_acc[run_code] += run_n
        _fold_sample(stats, t_acc, c_acc, w_acc)
        prof.end_block(t_end - t_blk)

    def shot_weights(self) -> np.ndarray:
        """Per-shot importance weights ``exp(log_weights)`` (unit
        weights when no tilted site ran)."""
        if self.log_weights is None:
            return np.ones(self.batch_size, dtype=np.float64)
        return np.exp(self.log_weights)

    def run(self, program: FrameProgram) -> np.ndarray:
        """Execute a compiled program; returns records ``(B, cbits)``.

        The record layout matches
        :meth:`repro.stabilizer.batch.BatchTableauSimulator.run` /
        :func:`repro.noise.executor.run_batch_noisy`, so decoders and
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
