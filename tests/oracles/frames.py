"""Oracles of ``frames/_kernel.c``: the numpy frame executor and the
reference pass replayed on the Python tableau.

**Executor.**  :func:`exec_numpy` runs a bound program's ``code`` one
numpy handler per op on a :class:`~repro.frames.FrameSimulator`'s
arrays and lanes, reading what the kernel reads: every op, its operands
and each measure's reference bit and fault reset's ``x_value`` from
``program.code`` (:func:`decode`), each site's ``p`` from
``program.probabilities`` and its tilt ratios from
``program.log_ratios``.  It has the signature of
``FrameSimulator._exec_native``, so :func:`numpy_executor` swaps it in
and every ``run_packed`` caller — lanes, op ranges, the splitting
sampler — runs on it unchanged.  Every op that draws makes, lane by
lane, the generator calls a one-lane simulator of that lane's size
makes; a fused layer is bit-identical to its scalar ops.  A tilted
layer sums its rows' ratios in row order, then banks the sum once — the
kernel's order, on any batch size.

**Reference pass.**  :func:`replay_reference` runs a reference stream
once on :class:`~oracles.chp.TableauSimulator`;
:func:`python_reference` makes every frame compile and reseed use it.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.frames import FrameSimulator, _native
from repro.frames import program as P
from repro.frames.packing import (
    FULL_WORD,
    WORD_BITS,
    pack_bool,
    pack_bool_rows,
    random_words,
    words_for,
)

from oracles.chp import Tableau, TableauSimulator


def bernoulli_words(rng: np.random.Generator, p: float, batch_size: int
                    ) -> np.ndarray:
    """Bit-packed Bernoulli(``p``) mask over ``batch_size`` shots.

    The packed tail past ``batch_size`` is zero, so the mask never
    selects don't-care bits.
    """
    if p >= 1.0:
        mask = np.full(words_for(batch_size), FULL_WORD, dtype=np.uint64)
        tail = batch_size % WORD_BITS
        if tail:
            mask[-1] = np.uint64((1 << tail) - 1)
        return mask
    if p <= 0.0:
        return np.zeros(words_for(batch_size), dtype=np.uint64)
    return pack_bool(rng.random(batch_size) < p)


# ----------------------------------------------------------------------
# Frame propagation (conjugation by the ideal Cliffords).  Every operand
# is a qubit index or — for a fused layer — an index array of pairwise
# disjoint qubits, so the fancy-indexed whole-layer op matches the
# gate-by-gate semantics exactly; no rng is involved.
# ----------------------------------------------------------------------
def h(sim, a) -> None:
    tmp = sim.x[a].copy()
    sim.x[a] = sim.z[a]
    sim.z[a] = tmp


def s(sim, a) -> None:
    sim.z[a] ^= sim.x[a]


def cx(sim, c, t) -> None:
    sim.x[t] ^= sim.x[c]
    sim.z[c] ^= sim.z[t]


def cz(sim, a, b) -> None:
    sim.z[a] ^= sim.x[b]
    sim.z[b] ^= sim.x[a]


def swap(sim, a, b) -> None:
    sim.x[[a, b]] = sim.x[[b, a]]
    sim.z[[a, b]] = sim.z[[b, a]]


# ----------------------------------------------------------------------
# Non-unitary ops
# ----------------------------------------------------------------------
def measure(sim, a: int, reference_bit: int) -> np.ndarray:
    """Z-measure ``a``: per-shot outcome words (reference XOR X frame);
    the measured qubit's Z frame is re-randomised."""
    out = sim.x[a].copy()
    if reference_bit:
        out ^= FULL_WORD
    sim.z[a] ^= sim._random_rows(1)[0]
    return out


def measure_layer(sim, qs: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Fused Z-measure of disjoint qubits: ``(k, W)`` words, the ``k``
    scalar measures' (reads precede the Z re-randomisation, and the one
    block draw is the per-qubit draws concatenated)."""
    out = sim.x[qs].copy()
    out[refs.astype(bool)] ^= FULL_WORD
    sim.z[qs] ^= sim._random_rows(len(qs))
    return out


def reset(sim, a) -> None:
    """Circuit reset: X cleared, Z randomised (a layer in one block
    draw)."""
    sim.x[a] = 0
    rows = sim._random_rows(np.size(a))
    sim.z[a] = rows if np.ndim(a) else rows[0]


# ----------------------------------------------------------------------
# Lowered noise ops
# ----------------------------------------------------------------------
def _depolarize(sim, rows, k: int, p, weighted: bool) -> Optional[np.ndarray]:
    """``k`` sites on frame rows ``rows`` at probability ``p`` (a
    scalar, or a ``(k, 1)`` column): per lane one ``(k, shots)`` draw.
    ``u < p`` fires a site: X iff ``u < 2p/3``, Z iff ``u >= p/3``.
    Returns, when ``weighted``, which shots each site fired."""
    fired = (np.empty((k, sim.batch_size), dtype=bool)
             if weighted else None)
    hits = 0
    for rng, start, size, lo, hi in sim._lanes:
        u = rng.random((k, size))
        hit = u < p
        lane_hits = int(np.count_nonzero(hit))
        if lane_hits:
            hits += lane_hits
            third = p / 3.0
            sim.x[rows, lo:hi] ^= pack_bool_rows(u < 2 * third)
            sim.z[rows, lo:hi] ^= pack_bool_rows((u >= third) & hit)
        if weighted:
            fired[:, start:start + size] = hit
    sim.depolarize_stats[0] += k * len(sim._lanes)
    sim.depolarize_stats[1] += hits
    return fired


def depolarize(sim, a: int, p: float, llr_hit=None, llr_miss=None) -> None:
    """One depolarize site; a tilted one banks ``llr_hit`` where it
    fired, else ``llr_miss`` (nothing when both are 0)."""
    weighted = bool(llr_hit or llr_miss)
    fired = _depolarize(sim, slice(a, a + 1), 1, p, weighted)
    if weighted:
        sim.log_weights += np.where(fired[0], llr_hit, llr_miss)


def depolarize_layer(sim, qs: np.ndarray, ps: np.ndarray, llr_hit=None,
                     llr_miss=None) -> None:
    """Fused depolarize sites on disjoint qubits; a tilted layer sums
    its rows' ratios per shot in row order, then banks the sum once."""
    fired = _depolarize(sim, qs, len(qs), ps[:, None], llr_hit is not None)
    if llr_hit is not None:
        terms = np.where(fired, llr_hit[:, None], llr_miss[:, None])
        sim.log_weights += np.add.accumulate(terms, axis=0)[-1]


def reset_noise(sim, a: int, p: float, x_value: Optional[int] = None) -> None:
    """Fault reset of ``a`` on a Bernoulli(``p``) subset of shots: X
    forced to ``x_value`` (or fresh random bits when the reference is
    Z-indefinite there, ``None``), Z fresh random bits."""
    xa, za = sim.x[a], sim.z[a]
    for rng, _, size, lo, hi in sim._lanes:
        mask = bernoulli_words(rng, p, size)
        if not mask.any():
            continue
        x = xa[lo:hi]
        if x_value is None:
            x ^= (x ^ random_words(rng, hi - lo)) & mask
        elif x_value:
            x |= mask
        else:
            x &= ~mask
        z = za[lo:hi]
        z ^= (z ^ random_words(rng, hi - lo)) & mask


def flip(sim, a: int, p: float, axis: int) -> None:
    """One flip site: per lane one uniform per shot, ``u < p`` toggles
    the shot's X (``axis`` 0) or Z (1) frame bit of ``a``."""
    rows = sim.z if axis else sim.x
    for rng, _, size, lo, hi in sim._lanes:
        rows[a, lo:hi] ^= pack_bool_rows(rng.random((1, size)) < p)[0]


#: Opcode -> handler of the ops that execute as
#: ``handler(sim, *op[1:])``: the Cliffords and circuit resets.
_HANDLER = {
    P.OP_H: h, P.OP_H_LAYER: h, P.OP_S: s, P.OP_S_LAYER: s,
    P.OP_CX: cx, P.OP_CX_LAYER: cx, P.OP_CZ: cz, P.OP_CZ_LAYER: cz,
    P.OP_SWAP: swap, P.OP_SWAP_LAYER: swap,
    P.OP_RESET: reset, P.OP_RESET_LAYER: reset}


#: Words per entry of each opcode, answer word included — ``_kernel.c``'s
#: ``ARITY``: a scalar op has one entry, a layer ``k``.
_ENTRY_WORDS = {
    P.OP_H: 1, P.OP_S: 1, P.OP_CX: 2, P.OP_CZ: 2, P.OP_SWAP: 2,
    P.OP_MEASURE: 3, P.OP_RESET: 1, P.OP_DEPOLARIZE: 2,
    P.OP_RESET_NOISE: 3, P.OP_FLIP: 3, P.OP_H_LAYER: 1, P.OP_S_LAYER: 1,
    P.OP_CX_LAYER: 2, P.OP_CZ_LAYER: 2, P.OP_SWAP_LAYER: 2,
    P.OP_MEASURE_LAYER: 3, P.OP_RESET_LAYER: 1, P.OP_DEPOLARIZE_LAYER: 2}

#: Opcodes whose entries end in an answer word.
_ANSWERED = (P.OP_MEASURE, P.OP_RESET_NOISE, P.OP_MEASURE_LAYER)


def decode(program) -> List[Tuple[Tuple, object]]:
    """Per op of ``program.code`` (a program or a structure), framed as
    the kernel frames it: ``(op, answer)``.  ``op`` is the opcode and
    its operands — ints for a scalar op, an index array per operand
    column for a layer; ``answer`` is what its answer words hold: a
    measure's reference bit, a measure layer's bits (uint8), a fault
    reset's ``x_value`` (``None`` where the reference is Z-indefinite),
    ``None`` for every other op.  Holds each op's first word to
    ``program.ops``."""
    code = program.code.tolist()
    at = P.CODE_HEADER
    starts: List[int] = []
    decoded: List[Tuple[Tuple, object]] = []
    while at < len(code):
        starts.append(at)
        op = code[at]
        layer = op >= P.OP_H_LAYER
        k = code[at + 1] if layer else 1
        at += 1 + layer
        columns = [code[at + e * k:at + (e + 1) * k]
                   for e in range(_ENTRY_WORDS[op])]
        at += k * len(columns)
        answer = columns.pop() if op in _ANSWERED else None
        if layer:
            operands = tuple(np.array(c, dtype=np.intp) for c in columns)
            if answer is not None:
                answer = np.array(answer, dtype=np.uint8)
        else:
            operands = tuple(c[0] for c in columns)
            if answer is not None:
                answer = None if answer[0] == P._INDEFINITE else answer[0]
        decoded.append(((op,) + operands, answer))
    assert at == len(code)
    assert starts == program.ops.tolist()
    return decoded


def exec_numpy(sim, program, start: int, stop: int,
               record_words: np.ndarray) -> None:
    """Ops ``start .. stop`` of ``program`` against ``record_words``,
    one handler call per op of :func:`decode` —
    ``FrameSimulator._exec_native``'s oracle."""
    p, llr = program.probabilities, program.log_ratios
    for op, answer in decode(program)[start:stop]:
        code = op[0]
        if code == P.OP_MEASURE:
            record_words[op[2]] = measure(sim, op[1], answer)
        elif code == P.OP_MEASURE_LAYER:
            record_words[op[2]] = measure_layer(sim, op[1], answer)
        elif code == P.OP_RESET_NOISE:
            reset_noise(sim, op[1], float(p[op[2]]), answer)
        elif code == P.OP_DEPOLARIZE:
            ratios = () if llr is None else llr[:, op[2]].tolist()
            depolarize(sim, op[1], float(p[op[2]]), *ratios)
        elif code == P.OP_DEPOLARIZE_LAYER:
            ratios = () if llr is None else llr[:, op[2]]
            depolarize_layer(sim, op[1], p[op[2]], *ratios)
        elif code == P.OP_FLIP:
            flip(sim, op[1], float(p[op[2]]), op[3])
        else:
            _HANDLER[code](sim, *op[1:])


@contextlib.contextmanager
def numpy_executor():
    """Every ``FrameSimulator.run_packed`` inside runs on
    :func:`exec_numpy` instead of the kernel."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(FrameSimulator, "_exec_native", exec_numpy)
        yield


# ----------------------------------------------------------------------
# The reference pass
# ----------------------------------------------------------------------
#: Tableau method per gate opcode of the stream.
_TABLEAU_GATES = {P.REF_X: Tableau.x_gate, P.REF_Y: Tableau.y_gate,
                  P.REF_Z: Tableau.z_gate, P.REF_H: Tableau.h,
                  P.REF_S: Tableau.s, P.REF_SDG: Tableau.sdg,
                  P.REF_CX: Tableau.cx, P.REF_CZ: Tableau.cz,
                  P.REF_SWAP: Tableau.swap}


def _z_indefinite(sim: TableauSimulator, qubit: int) -> bool:
    """Would measuring ``qubit`` take the random CHP branch (some
    stabilizer anticommutes with its ``Z``) and draw from the rng?"""
    tab = sim.tableau
    return bool(tab.x[tab.n:, qubit].any())


def _z_determinate(sim: TableauSimulator, qubit: int) -> Optional[int]:
    """The definite Z value of ``qubit`` in the reference state, or
    ``None`` when a measurement there would take the random branch."""
    if _z_indefinite(sim, qubit):
        return None
    # Deterministic CHP branch: non-destructive, consumes no randomness.
    return int(sim.tableau.measure(qubit, sim.rng))


def replay_reference(stream: Sequence[int], num_qubits: int,
                     rng: np.random.Generator) -> Tuple[List[int], bool]:
    """Run a reference stream once on a :class:`TableauSimulator` —
    ``_native.Kernel.reference``'s oracle, with its return
    convention."""
    stream = np.asarray(stream, dtype=np.int64).tolist()
    sim = TableauSimulator(num_qubits, rng=rng)
    tab = sim.tableau
    results: List[int] = []
    drew = False
    i = 0
    while i < len(stream):
        code, q = stream[i], stream[i + 1]
        if code in (P.REF_CX, P.REF_CZ, P.REF_SWAP):
            _TABLEAU_GATES[code](tab, q, stream[i + 2])
            i += 3
            continue
        i += 2
        if code == P.REF_MEASURE:
            random_branch = _z_indefinite(sim, q)
            drew |= random_branch
            results.append(tab.measure(q, rng) + 2 * random_branch)
        elif code == P.REF_RESET:
            drew |= _z_indefinite(sim, q)
            tab.reset(q, rng)
        elif code == P.REF_QUERY:
            value = _z_determinate(sim, q)
            results.append(P._INDEFINITE if value is None else value)
        elif code in (P.REF_DEPOLARIZE, P.REF_FLIP_X, P.REF_FLIP_Z):
            continue    # a noise site: the reference is noiseless
        else:
            _TABLEAU_GATES[code](tab, q)
    return results, drew


@contextlib.contextmanager
def python_reference():
    """Every frame compile and reseed inside runs its reference pass on
    :func:`replay_reference` instead of the kernel."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_native.Kernel, "reference",
                  lambda self, stream, num_qubits, rng:
                  replay_reference(stream, num_qubits, rng))
        yield
