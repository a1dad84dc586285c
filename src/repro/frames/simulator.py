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
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Union

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
_OBS_OPS = obs.counter("frames.ops")
_OBS_FUSED = obs.counter("frames.fused_ops")
_OBS_SITES = obs.counter("frames.depolarize_sites")
_OBS_HITS = obs.counter("frames.depolarize_hits")
_OBS_DENSE = obs.counter("frames.depolarize_dense_sites")

#: A drawn depolarize row with more hits than this takes the dense
#: mask-and-pack path instead of single-bit flips.  Fixed from the d=5
#: block-scale bench: a flip costs ~0.5 us of interpreter time, a dense
#: row ~4 us at 512 shots (packed in one sweep per draw).
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


class FrameSimulator:
    """X/Z Pauli frames for ``batch_size`` shots, bit-packed in uint64.

    Parameters
    ----------
    num_qubits:
        Register width ``n``.
    batch_size:
        Number of shots ``B`` (64 per word).
    rng:
        Generator (or int seed) driving the Z-frame randomisation and
        every lowered noise sampler.
    tilt:
        Importance-sampling tilt on depolarizing sites: each lowered
        ``OP_DEPOLARIZE`` site with nominal probability ``p`` fires at
        ``q = max(p, min(tilt * p, tilt_p_cap))`` instead, and the shot
        accumulates the exact log-likelihood-ratio ``log P_p / P_q`` in
        :attr:`log_weights` — a per-shot float row riding alongside the
        packed X/Z frames.  ``tilt=1`` (the default) keeps the
        historical bit-identical sampling path and allocates nothing.
        Fault-reset sites (``OP_RESET_NOISE``) are never tilted: the
        strike is the *condition* of a radiation campaign, not the rare
        event, and its per-site probabilities are already order one.
    """

    def __init__(self, num_qubits: int, batch_size: int,
                 rng: Union[np.random.Generator, int, None] = None,
                 tilt: float = 1.0, tilt_p_cap: float = 0.5) -> None:
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        if tilt != 1.0 and tilt < 1.0:
            raise ValueError("tilt must be >= 1")
        n = int(num_qubits)
        B = int(batch_size)
        self.n = n
        self.batch_size = B
        self.num_words = words_for(B)
        self.tilt = float(tilt)
        self.tilt_p_cap = float(tilt_p_cap)
        #: Per-shot accumulated log-likelihood-ratio weights (tilted
        #: sampling only; ``None`` — and zero overhead — at tilt=1).
        self.log_weights = (np.zeros(B, dtype=np.float64)
                            if self.tilt != 1.0 else None)
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        self.rng = rng
        self.x = np.zeros((n, self.num_words), dtype=np.uint64)
        # Uniformly random initial Z frame: stabilises |0...0>, feeds the
        # random-measurement branches downstream (module docstring).  One
        # (n, W) draw: Generator.bytes streams identically whether pulled
        # per row or in one call, so the sampled frames match the
        # historical per-qubit loop bit-for-bit.
        self.z = random_words(rng, n * self.num_words).reshape(
            n, self.num_words).copy()
        # The open depolarize draw (see depolarize_draw): run id, the
        # drawn uniforms, their (row, shot) hits in CSR form, dense rows.
        self._run = -1
        self._u = self._hits = self._row_ptr = None
        self._dense_words = self._dense_slot = None
        #: Depolarize [rows drawn, hits, rows packed densely] — of the
        #: last :meth:`run_packed`, or since construction before one.
        self.depolarize_stats = [0, 0, 0]
        self._record = None    # exec_ops' record words, for measures
        self._handlers = [getattr(self, _HANDLER[code])
                          for code in range(len(_HANDLER))]

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
        self.z[qs] ^= random_words(
            self.rng, len(qs) * self.num_words).reshape(len(qs), -1)
        return out

    # ------------------------------------------------------------------
    # Tilted (importance-sampled) depolarize helpers
    # ------------------------------------------------------------------
    def _tilted_p(self, p):
        """The sampling probability of nominal-``p`` depolarize sites
        (scalar or array) under the tilt: at most ``tilt_p_cap``, but
        never below ``p`` (a site already past the cap stays at ``p``
        — zero likelihood ratio — rather than under-sampling the tail)."""
        return np.maximum(p, np.minimum(self.tilt * p, self.tilt_p_cap))

    def _accumulate_llr(self, p: float, q: float, fired: np.ndarray) -> None:
        """Add one site's log-likelihood-ratio to every shot's weight.

        The tilt scales all three Pauli arms uniformly (``q/3`` each),
        so the ratio depends only on whether the site fired:
        ``log(p/q)`` on error shots, ``log((1-p)/(1-q))`` elsewhere.
        """
        if q == p:
            return
        self.log_weights += np.where(fired, np.log(p / q),
                                     np.log((1.0 - p) / (1.0 - q)))

    def _tilted_layer_llr(self, ps: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Resolve a depolarize layer's sampling probabilities and bank
        the layer's log-likelihood ratios (tilted simulators only)."""
        qs_p = self._tilted_p(ps)
        fired = u < qs_p[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            llr_hit = np.log(ps / qs_p)
            llr_miss = np.log((1.0 - ps) / (1.0 - qs_p))
        delta = np.where(fired, llr_hit[:, None], llr_miss[:, None])
        self.log_weights += np.where((qs_p == ps)[:, None], 0.0,
                                     delta).sum(axis=0)
        return qs_p

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
        self.z[a] ^= random_words(self.rng, self.num_words)
        return out

    def reset(self, a: Qubits) -> None:
        """Circuit reset (present in the reference run too): both runs
        land in |0>, so the X difference vanishes and Z is randomised
        (a layer in one block draw: the per-qubit draws concatenated)."""
        self.x[a] = 0
        self.z[a] = random_words(
            self.rng, np.size(a) * self.num_words).reshape(self.z[a].shape)

    # ------------------------------------------------------------------
    # Lowered noise ops
    # ------------------------------------------------------------------
    def depolarize_draw(self, ps: np.ndarray, run=None) -> None:
        """The draw half of a run of depolarize sites: one uniform row
        per entry of ``ps`` in a single generator call (stream-identical
        to per-site draws), reduced at once to what the sites need.

        One vectorised compare finds the hits ``u < p``, kept in CSR
        form so a site finds its rows' hits — usually none — by two
        list lookups.  Rows past :data:`DENSE_HITS_PER_ROW` hits get
        their X/Z masks packed here, in one sweep; sparser rows flip
        single bits when :meth:`depolarize` / :meth:`depolarize_layer`
        apply them by row, quoting ``run``.
        """
        k, B = len(ps), self.batch_size
        u = self.rng.random((k, B))
        if self.log_weights is not None:
            ps = self._tilted_p(ps)
        p = ps[:, None]
        hits = (u < p).ravel().nonzero()[0]   # flat row * B + shot, sorted
        self._run, self._u, self._hits = run, u, hits
        self.depolarize_stats[0] += k
        self.depolarize_stats[1] += hits.size
        if not hits.size:
            self._row_ptr = [0] * (k + 1)
            return
        ptr = np.searchsorted(hits, np.arange(0, (k + 1) * B, B))
        self._row_ptr = ptr.tolist()
        if hits.size <= DENSE_HITS_PER_ROW:    # no row can be dense
            return
        dense = (ptr[1:] - ptr[:-1] > DENSE_HITS_PER_ROW).nonzero()[0]
        if dense.size:
            ud, pd = u[dense], p[dense]
            third = pd / 3.0
            self._dense_words = pack_bool_rows(np.concatenate(
                [ud < 2 * third, (ud >= third) & (ud < pd)])
                ).reshape(2, dense.size, -1)     # [X|Z, slot, word]
            self._dense_slot = {r: j for j, r in enumerate(dense.tolist())}
            self.depolarize_stats[2] += dense.size

    def _apply_row(self, a: int, p: float, row: int) -> None:
        """XOR drawn row ``row``'s Pauli errors into qubit ``a``.

        Per shot ``u < p`` fires the site: X iff ``u < 2p/3``, Z iff
        ``u >= p/3`` (X, Y, Z at ``p/3`` each, Eq. 4) — the dense masks
        and the single-bit flips make the same comparisons.
        """
        lo, hi = self._row_ptr[row], self._row_ptr[row + 1]
        if hi - lo > DENSE_HITS_PER_ROW:
            x_words, z_words = self._dense_words[:, self._dense_slot[row]]
            self.x[a] ^= x_words
            self.z[a] ^= z_words
            return
        u = self._u[row]
        third = p / 3.0
        for c in (self._hits[lo:hi] - row * self.batch_size).tolist():
            word, bit, uc = c >> 6, _BIT[c & 63], u[c]
            if uc < 2 * third:
                self.x[a, word] ^= bit
            if uc >= third:
                self.z[a, word] ^= bit

    def depolarize(self, a: int, p: float, run=None, row: int = 0) -> None:
        """Per-shot X/Y/Z error with probability ``p/3`` each (Eq. 4).

        Compiled programs pass the site's ``(run, row)`` in the open
        :meth:`depolarize_draw`; called bare, the site draws its own
        row.  Under a tilt the site samples at the boosted probability
        and banks the shot's log-likelihood ratio (see the class doc).
        """
        if run is None:
            self.depolarize_draw(np.array([p], dtype=float))
        if run != self._run:
            raise RuntimeError(_CUT_RUN.format(run, self._run))
        if self.log_weights is not None:
            q = self._tilted_p(p)
            self._accumulate_llr(p, q, self._u[row] < q)
            p = q
        if self._row_ptr[row] != self._row_ptr[row + 1]:
            self._apply_row(a, p, row)

    def depolarize_layer(self, qs: np.ndarray, ps: np.ndarray,
                         run=None, row: int = 0) -> None:
        """Fused depolarize sites on disjoint qubits: rows ``row ..
        row + len(qs)`` of the open draw (or, called bare, of its own
        block draw)."""
        if run is None:
            self.depolarize_draw(ps)
        if run != self._run:
            raise RuntimeError(_CUT_RUN.format(run, self._run))
        end = row + len(qs)
        if self.log_weights is not None:
            ps = self._tilted_layer_llr(ps, self._u[row:end])
        ptr = self._row_ptr
        if ptr[row] != ptr[end]:
            for i in range(len(qs)):
                if ptr[row + i] != ptr[row + i + 1]:
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
        mask = bernoulli_words(self.rng, p, self.batch_size)
        if not mask.any():
            return
        keep = ~mask
        if x_value is None:
            xbits = random_words(self.rng, self.num_words)
        elif x_value:
            xbits = np.full(self.num_words, FULL_WORD, dtype=np.uint64)
        else:
            xbits = np.zeros(self.num_words, dtype=np.uint64)
        self.x[a] = (self.x[a] & keep) | (xbits & mask)
        zbits = random_words(self.rng, self.num_words)
        self.z[a] = (self.z[a] & keep) | (zbits & mask)

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
        self.exec_ops(program.ops, record_words)
        _OBS_BLOCKS.inc()
        _OBS_OPS.inc(len(program.ops))
        _OBS_FUSED.inc(program.fused_ops)
        for ctr, n in zip((_OBS_SITES, _OBS_HITS, _OBS_DENSE),
                          self.depolarize_stats):
            ctr.inc(n)
        return record_words

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

        With a profiler enabled (``repro perf record``) one block in
        ``prof.SAMPLE_EVERY`` additionally reads the clock wherever the
        opcode changes (runs of one opcode share a bucket; fused ops
        count their width as scalar-equivalent ops); every block
        contributes wall time, and the profiler scales the sampled
        buckets to it at snapshot.  Scalar frame ops are sub-µs to a
        few µs each: clocking every block would alone break the < 2%
        budget.  Off, the ``None`` check is the entire hot-path cost.
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
        for code, calls in enumerate(c_acc):
            if calls:
                st = stats[code]
                st.total_s += t_acc[code]
                st.count += calls
                st.ops += calls + w_acc[code]
        prof.end_block(t_end - t_blk)

    def shot_weights(self) -> np.ndarray:
        """Per-shot importance weights ``exp(log_weights)`` (unit
        weights when the simulator is untilted)."""
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
