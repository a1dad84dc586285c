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
``measure``/``measure_layer``, ``reset``, ``depolarize_draw``,
``reset_noise``) makes, lane by lane, exactly the generator calls a
one-lane simulator of that lane's size makes, in the same order, and
writes them to that lane's word columns; everything else — the
Cliffords, the op loop, the hit flips, the record writes — runs once
over the whole ``(n, W)`` arrays.  So a lane's record words, weights
and final generator state do not depend on which lanes ran beside it,
and ``FrameSimulator(n, B, rng=g)`` is simply the one-lane case.  The
campaign engine runs a span of canonical 512-shot blocks as the lanes
of one simulator: per-op interpreter and dispatch cost is paid once
per span instead of once per block.
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
    OP_DEPOLARIZE_DRAW,
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
_OBS_DENSE = obs.counter("frames.depolarize_dense_sites")

#: A depolarize row *expecting* more hits per lane than this (``p``
#: times the lane size) takes the dense mask-and-pack path instead of
#: single-bit flips.  Fixed from the d=5 block-scale bench: a flip
#: costs ~0.5 us of interpreter time, a dense row ~4 us at 512 shots
#: (packed in one sweep per draw).  The rule reads the row's
#: probability, not its drawn hits, so each lane's draw can be reduced
#: and dropped before the next lane's is made; both paths make the
#: same comparisons, so records are identical under any rule.
DENSE_HITS_PER_ROW = 8

#: A Clifford operand: one qubit, or a fused layer's disjoint qubits.
Qubits = Union[int, np.ndarray]

_CUT_RUN = ("depolarize site of run {} executed against the draw of run {}: "
            "the op slice separates the site from its OP_DEPOLARIZE_DRAW")

#: ``_BIT[j]``: the word with only shot-bit ``j`` set.
_BIT = [np.uint64(1) << np.uint64(j) for j in range(WORD_BITS)]

#: Opcode -> handler method, the one dispatch table (plain and
#: profiled): an op executes as ``handler(*op[1:])``.
_HANDLER = {
    OP_H: "h", OP_H_LAYER: "h", OP_S: "s", OP_S_LAYER: "s",
    OP_CX: "cx", OP_CX_LAYER: "cx", OP_CZ: "cz", OP_CZ_LAYER: "cz",
    OP_SWAP: "swap", OP_SWAP_LAYER: "swap",
    OP_MEASURE: "_measure_into", OP_MEASURE_LAYER: "_measure_layer_into",
    OP_RESET: "reset", OP_RESET_LAYER: "reset",
    OP_RESET_NOISE: "reset_noise", OP_DEPOLARIZE_DRAW: "depolarize_draw",
    OP_DEPOLARIZE: "depolarize", OP_DEPOLARIZE_LAYER: "depolarize_layer"}

#: Ops whose first operand is an array, one entry per scalar-equivalent
#: op — how the profiler reads a fused op's width straight from the op.
_WIDE_OPS = LAYER_OPS | {OP_DEPOLARIZE_DRAW}


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
    riding alongside the packed X/Z frames, allocated by the first
    weighted site.
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
        #: The dense/sparse rule's lane size (see DENSE_HITS_PER_ROW).
        self._lane_shots = max(sizes)
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
        # The open depolarize draw (see depolarize_draw): run id, the
        # sparse rows' hits in CSR form over rows — shot and uniform
        # per hit — and the dense rows' packed masks.
        self._run = -1
        self._row_ptr = None
        self._hit_shots = self._hit_u = []
        self._dense_words = None
        self._dense_slot = {}
        #: Depolarize [rows drawn, hits, rows packed densely], counted
        #: per lane — of the last :meth:`run_packed`, or since
        #: construction before one.
        self.depolarize_stats = [0, 0, 0]
        self._record = None    # exec_ops' record words, for measures
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
    # Importance weights of tilted depolarize sites
    # ------------------------------------------------------------------
    def _weigh(self, row: int, llr_hit, llr_miss) -> None:
        """Bank the log-likelihood ratios of the tilted site(s) at rows
        ``row ..`` of the open draw: ``llr_hit`` on the shots a site
        fired, ``llr_miss`` on the rest — a scalar site's at once, a
        layer's summed over its rows first."""
        if self.log_weights is None:
            self.log_weights = np.zeros(self.batch_size)
        if np.ndim(llr_hit):
            fired = self._fired(row, row + len(llr_hit))
            self.log_weights += np.where(fired, llr_hit[:, None],
                                         llr_miss[:, None]).sum(axis=0)
        elif llr_hit or llr_miss:
            self.log_weights += np.where(self._fired(row, row + 1)[0],
                                         llr_hit, llr_miss)

    def _fired(self, row: int, end: int) -> np.ndarray:
        """``(end - row, B)`` bool: which shots fired rows ``row ..
        end`` of the open draw — its compare ``u < q`` rebuilt from
        what the draw kept (a shot fired iff it got an X or a Z)."""
        fired = np.zeros((end - row, self.batch_size), dtype=bool)
        ptr, shots = self._row_ptr, self._hit_shots
        for i in range(end - row):
            slot = self._dense_slot.get(row + i)
            if slot is not None:
                x_words, z_words = self._dense_words[:, slot]
                fired[i] = unpack_words(x_words | z_words, self.batch_size)
            elif ptr[row + i] != ptr[row + i + 1]:
                fired[i, shots[ptr[row + i]:ptr[row + i + 1]]] = True
        return fired

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
    def depolarize_draw(self, ps: np.ndarray, run=None) -> None:
        """The draw half of a run of depolarize sites: per lane, one
        uniform row per entry of ``ps`` in a single generator call
        (stream-identical to per-site draws), reduced at once to what
        the sites need and then dropped — a span never holds more than
        one lane's uniforms.

        One vectorised compare finds the hits ``u < p``; their shots
        and uniforms are kept in CSR form over rows, so a site finds
        its rows' hits — usually none — by two list lookups and flips
        single bits when :meth:`depolarize` / :meth:`depolarize_layer`
        apply them by row, quoting ``run``.  Rows expecting more than
        :data:`DENSE_HITS_PER_ROW` hits a lane get their X/Z masks
        packed here instead, in one sweep per lane.
        """
        k, lanes = len(ps), self._lanes
        p = ps[:, None]
        # A run of equal probabilities (one depolarizing strength — the
        # usual case) compares against the scalar: numpy's broadcast
        # compare against a (k, 1) column runs ~4x slower.
        threshold = ps[0] if (ps == ps[0]).all() else p
        dense = (ps * self._lane_shots > DENSE_HITS_PER_ROW).nonzero()[0]
        self._dense_slot = {r: j for j, r in enumerate(dense.tolist())}
        pd = p[dense]
        if dense.size:
            self._dense_words = np.empty((2, dense.size, self.num_words),
                                         dtype=np.uint64)  # [X|Z, slot, word]
        num_hits = 0
        hits = []
        for lane in lanes:
            lane_hits, dense_hits = self._draw_lane(lane, k, threshold,
                                                    dense, pd)
            num_hits += dense_hits
            if lane_hits is not None:
                hits.append(lane_hits)
        self._run = run
        self.depolarize_stats[0] += k * len(lanes)
        self.depolarize_stats[2] += dense.size * len(lanes)
        if not hits:
            self.depolarize_stats[1] += num_hits
            self._row_ptr = [0] * (k + 1)
            return
        rows, shots, us = hits[0]
        if len(hits) > 1:
            # Each lane's hits are sorted by row; a stable sort keeps
            # them in lane order within a row.
            rows, shots, us = (np.concatenate(part) for part in zip(*hits))
            order = rows.argsort(kind="stable")
            rows, shots, us = rows[order], shots[order], us[order]
        self.depolarize_stats[1] += num_hits + rows.size
        self._row_ptr = np.searchsorted(rows, np.arange(k + 1)).tolist()
        self._hit_shots = shots.tolist()
        self._hit_u = us.tolist()

    def _draw_lane(self, lane: _Lane, k: int, threshold, dense: np.ndarray,
                   pd: np.ndarray):
        """One lane's share of a draw: ``(k, shots)`` uniforms from the
        lane's generator, reduced to the sparse rows' hits — ``(rows,
        shots, uniforms)`` sorted by row, or ``None`` — and the dense
        rows' masks, packed into the lane's word columns; returns the
        hits and the dense rows' hit count.  The uniforms die with
        this frame, so the next lane's draw gets the same, cache-warm
        block back from the allocator."""
        rng, start, size, lo, hi = lane
        u = rng.random((k, size))
        fired = u < threshold
        dense_hits = 0
        if dense.size:
            every = dense.size == k     # the usual dense draw: no row copy
            ud = u if every else u[dense]
            third = pd / 3.0
            self._dense_words[:, :, lo:hi] = pack_bool_rows(
                np.concatenate([ud < 2 * third, (ud >= third) & (ud < pd)])
                ).reshape(2, dense.size, -1)
            dense_hits = int(np.count_nonzero(fired if every
                                              else fired[dense]))
            if every:
                return None, dense_hits
            fired[dense] = False
        flat = fired.ravel().nonzero()[0]       # row * size + shot, sorted
        if not flat.size:
            return None, dense_hits
        rows = flat // size
        return (rows, flat - rows * size + start, u.ravel()[flat]), dense_hits

    def _apply_row(self, a: int, p: float, row: int) -> None:
        """XOR drawn row ``row``'s Pauli errors into qubit ``a``.

        Per shot ``u < p`` fires the site: X iff ``u < 2p/3``, Z iff
        ``u >= p/3`` (X, Y, Z at ``p/3`` each, Eq. 4) — the dense masks
        and the single-bit flips make the same comparisons.
        """
        slot = self._dense_slot.get(row)
        if slot is not None:
            x_words, z_words = self._dense_words[:, slot]
            self.x[a] ^= x_words
            self.z[a] ^= z_words
            return
        lo, hi = self._row_ptr[row], self._row_ptr[row + 1]
        third = p / 3.0
        xa, za = self.x[a], self.z[a]
        for c, uc in zip(self._hit_shots[lo:hi], self._hit_u[lo:hi]):
            word, bit = c >> 6, _BIT[c & 63]
            if uc < 2 * third:
                xa[word] ^= bit
            if uc >= third:
                za[word] ^= bit

    def depolarize(self, a: int, p: float, run=None, row: int = 0,
                   llr_hit=None, llr_miss=None) -> None:
        """Per-shot X/Y/Z error with probability ``p/3`` each (Eq. 4).

        Compiled programs pass the site's ``(run, row)`` in the open
        :meth:`depolarize_draw`; called bare, the site draws its own
        row.  A site of a tilted program samples at the tilted ``p``
        and also carries its log-likelihood ratios, which the shots
        bank in :attr:`log_weights` (see the class doc).
        """
        if run is None:
            self.depolarize_draw(np.array([p], dtype=float))
        if run != self._run:
            raise RuntimeError(_CUT_RUN.format(run, self._run))
        if llr_hit is not None:
            self._weigh(row, llr_hit, llr_miss)
        if self._row_ptr[row] != self._row_ptr[row + 1] \
                or row in self._dense_slot:
            self._apply_row(a, p, row)

    def depolarize_layer(self, qs: np.ndarray, ps: np.ndarray,
                         run=None, row: int = 0,
                         llr_hit=None, llr_miss=None) -> None:
        """Fused depolarize sites on disjoint qubits: rows ``row ..
        row + len(qs)`` of the open draw (or, called bare, of its own
        block draw); weighted like :meth:`depolarize`."""
        if run is None:
            self.depolarize_draw(ps)
        if run != self._run:
            raise RuntimeError(_CUT_RUN.format(run, self._run))
        end = row + len(qs)
        if llr_hit is not None:
            self._weigh(row, llr_hit, llr_miss)
        ptr, dense = self._row_ptr, self._dense_slot
        if ptr[row] != ptr[end] or dense:
            for i in range(len(qs)):
                if ptr[row + i] != ptr[row + i + 1] or row + i in dense:
                    self._apply_row(qs[i], ps[i], row + i)

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
    def run_packed(self, program: FrameProgram) -> np.ndarray:
        """Execute a compiled program; returns record *words*.

        The ``(num_cbits, W)`` uint64 result is the backend's native
        output: cbit ``c``'s per-shot outcomes bit-packed 64 shots per
        word.  Frame-native consumers (the :mod:`repro.detect` streaming
        detector) reduce these words directly — popcount, bit-sliced
        counters, whole-word XOR — without ever materialising per-shot
        uint8 records.
        """
        if program.num_qubits > self.n:
            raise ValueError("program wider than simulator register")
        record_words = np.zeros((program.num_cbits, self.num_words),
                                dtype=np.uint64)
        self.depolarize_stats = [0, 0, 0]
        kernel = self._native_kernel(program)
        if kernel is None:
            self.exec_ops(program.ops, record_words)
            _OBS_NUMPY.inc(len(self._lanes))
        else:
            self._exec_native(kernel, program, record_words)
            _OBS_NATIVE.inc(len(self._lanes))
        _OBS_BLOCKS.inc(len(self._lanes))
        _OBS_OPS.inc(len(program.ops))
        _OBS_FUSED.inc(program.fused_ops)
        for ctr, n in zip((_OBS_SITES, _OBS_HITS, _OBS_DENSE),
                          self.depolarize_stats):
            ctr.inc(n)
        return record_words

    def _native_kernel(self, program: FrameProgram):
        """The native executor when it can run ``program`` here with
        the numpy executor's exact outcome, else ``None``: it knows
        neither a tilted program's weights, nor ``MT19937``'s 32-bit
        raw stream (:func:`~repro.frames.packing.random_words`), nor a
        handler a subclass overrides; each lane needs a generator of its
        own (it draws site by site where :meth:`depolarize_draw` draws
        lane by lane); and it works on the ``(n, W)`` arrays in place."""
        code, prob = program.code, program.probabilities
        if (code is None or prob is None or program.log_ratios is not None
                or type(self) is not FrameSimulator):
            return None
        # The kernel indexes unchecked: hold the arrays it will be
        # handed against the bounds the stream was encoded under.
        num_qubits, num_cbits, num_sites = code[:CODE_HEADER].tolist()
        if (code.dtype != np.int64 or prob.dtype != np.float64
                or not (code.flags.c_contiguous and prob.flags.c_contiguous)
                or num_qubits > self.n or num_cbits > program.num_cbits
                or num_sites > prob.size):
            raise ValueError("program.code does not fit the program's "
                             "probabilities, record or this simulator")
        generators = [lane.rng.bit_generator for lane in self._lanes]
        if (any(isinstance(bg, np.random.MT19937) for bg in generators)
                or len(set(map(id, generators))) != len(generators)):
            return None
        shape = (self.n, self.num_words)
        for frame in (self.x, self.z):
            if (frame.shape != shape or frame.dtype != np.uint64
                    or not frame.flags.c_contiguous):
                return None
        from . import _native   # first sample, not ``import repro``

        return _native.kernel()

    def _exec_native(self, kernel, program: FrameProgram,
                     record_words: np.ndarray) -> None:
        """:meth:`exec_ops` of the whole program as one foreign call
        (``_kernel.c``), profiled like it: every execution contributes
        its wall time, a sampled one has the kernel clock its opcode
        runs into the same buckets."""
        prof = _prof._ACTIVE
        stats, sampled = prof.begin_block() if prof else (None, False)
        t_blk = perf_counter()
        cut_run, out, acc = kernel(
            program.code[CODE_HEADER:], program.probabilities,
            self.x, self.z, record_words,
            [(lane.shots, lane.lo, lane.hi) for lane in self._lanes],
            [lane.rng.bit_generator for lane in self._lanes],
            self._lane_shots, DENSE_HITS_PER_ROW, sampled)
        if prof is not None:
            if sampled:
                k = len(acc) // 3
                _fold_sample(stats, acc[:k], map(int, acc[k:2 * k]),
                             map(int, acc[2 * k:]))
            prof.end_block(perf_counter() - t_blk)
        if cut_run:
            raise RuntimeError(_CUT_RUN.format(out[3], out[4]))
        self.depolarize_stats = out[:3]

    def _measure_into(self, a: int, cbit: int, reference_bit: int) -> None:
        self._record[cbit] = self.measure(a, reference_bit)

    def _measure_layer_into(self, qs, cbits, refs) -> None:
        self._record[cbits] = self.measure_layer(qs, refs)

    def exec_ops(self, ops, record_words: np.ndarray) -> None:
        """Execute a slice of compiled ops against ``record_words``.

        The dispatch core of :meth:`run_packed`, exposed so staged
        executors (the multilevel-splitting driver in
        :mod:`repro.rare.split`) can run a program segment by segment,
        resampling the batch between segments.  No draw stays open
        across calls: a slice that separates a depolarize site from
        its ``OP_DEPOLARIZE_DRAW`` raises instead of applying one
        batch's hits to another.

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
        self._run = -1
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
        wide = _WIDE_OPS
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
            if code in wide:
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
