"""Oracle of ``frames/_kernel.c``'s batched tableau: a vectorized
numpy batch stabilizer simulator and the site-table interpreter that
walks noise on it.

:class:`BatchTableauSimulator` simulates ``B`` independent shots of a
Clifford + measure/reset circuit simultaneously, holding all ``B``
tableaus in contiguous NumPy arrays and applying every operation across
the batch in vectorized form.  :func:`numpy_walk` runs a circuit and a
noise model on it — every channel's site table read by
:func:`apply_sites` — with the return convention of
``run_batch_noisy(..., backend="tableau")``, which runs the same walk
in ``repro_tableau_run``.  The two give one record, bitwise-equal
log-weights and leave the generator in one state
(``tests/test_tableau_native.py``, ``tests/test_tableau_stream.py``).

Layout: column-major with the tableau rows bit-packed.  ``x`` and ``z``
are ``(n, 2, Wn, B)`` uint64 and ``r`` is ``(2, Wn, B)``, where ``half``
0 holds the destabilizers, 1 the stabilizers, ``Wn = ceil(n / 64)`` and
bit ``i`` of word ``w`` is tableau row ``half * n + 64 w + i`` (padding
bits past row ``n`` stay zero).  A Clifford or Pauli on qubit ``a``
touches only the contiguous ``(2, Wn, B)`` columns ``x[a]``/``z[a]`` and
acts on 64 rows per word op; measurements are loop-free over rows — the
CHP ``rowsum`` phases are evaluated bit-sliced, mod 4, over the column
axis.  The shot axis is innermost so that a per-shot mask (one
all-ones/all-zeros word per shot) broadcasts along NumPy's inner loop.
Python-level loops only appear over circuit gates.

Stochastic noise is supported through *masked* operations: every gate
can be restricted to an arbitrary subset of shots, which is how
:func:`apply_sites` applies a Pauli error to exactly the shots that
sampled one.  Masked measurement/reset handle the per-shot branching between
deterministic and random outcomes without leaving NumPy.

Draw contract: the only randomness here is one ``rng.integers(0, 2,
size=k, dtype=uint8)`` per measurement with a random branch, over its
``k`` random-branch shots in ascending order — byte for byte,
``ceil(k / 4)`` ``next_uint32`` calls, shot ``j``'s outcome bit 7 of
byte ``j % 4`` of word ``j // 4`` (numpy's bounded Lemire draw on a
range of 2 keeps the top bit and never rejects); the noise walk adds
one ``rng.random(B)`` (``B`` ``next_double`` calls) per drawing site.
The pivot is the first stabilizer row holding ``X_a`` and the
destabilizer slot receives the old pivot row, so every shot's tableau
equals the single-shot :class:`~oracles.chp.Tableau`
reference bit for bit (``tests/test_tableau_stream.py`` pins records
and generator state).

Memory: ``32 n Wn`` bytes per shot plus the sign words; for the paper's
largest code (30 qubits) and 10⁴ shots this is ~10 MB.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits import Circuit, Gate, GateType
from repro.noise.base import FLIP, RESET, NoiseModel, SiteTable
from repro.util.bits import popcount_words

from oracles.chp import Tableau

_ZERO = np.uint64(0)
_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

def _lanes(mask: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Boolean per-shot mask -> all-ones/all-zeros word per shot."""
    if mask is None:
        return None
    return np.where(mask, _FULL, _ZERO)


def _toggle(target: np.ndarray, bits: np.ndarray,
            lane: Optional[np.ndarray]) -> None:
    """``target ^= bits`` on the masked shots (all when ``lane`` is None)."""
    target ^= bits if lane is None else bits & lane


def _exchange(u: np.ndarray, v: np.ndarray,
              lane: Optional[np.ndarray]) -> None:
    """Swap ``u`` and ``v`` in place on the masked shots."""
    diff = u ^ v
    if lane is not None:
        diff &= lane
    u ^= diff
    v ^= diff


class BatchTableauSimulator:
    """``batch_size`` independent stabilizer states evolved in lockstep.

    Parameters
    ----------
    num_qubits:
        Register width ``n``.
    batch_size:
        Number of shots ``B``.
    rng:
        Generator (or int seed) for random measurement outcomes.
    """

    def __init__(self, num_qubits: int, batch_size: int,
                 rng: Optional[np.random.Generator | int] = None) -> None:
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        if batch_size <= 0:
            raise ValueError("need at least one shot")
        n = int(num_qubits)
        B = int(batch_size)
        self.n = n
        self.batch_size = B
        words = (n + 63) // 64
        self.x = np.zeros((n, 2, words, B), dtype=np.uint64)
        self.z = np.zeros((n, 2, words, B), dtype=np.uint64)
        self.r = np.zeros((2, words, B), dtype=np.uint64)
        # Destabilizer q = X_q ; stabilizer q = Z_q.
        q = np.arange(n)
        bit = (_ONE << (q % 64).astype(np.uint64))[:, None]
        self.x[q, 0, q // 64] = bit
        self.z[q, 1, q // 64] = bit
        if rng is None:
            rng = np.random.default_rng()
        elif isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self.rng = rng
        #: Per-shot log-likelihood ratios a tilted noise walk banks
        #: (:func:`apply_sites`); ``None`` on a nominal one.
        self.log_weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Masked single-qubit Cliffords
    # ------------------------------------------------------------------
    def h(self, a: int, mask: Optional[np.ndarray] = None) -> None:
        lane = _lanes(mask)
        xa, za = self.x[a], self.z[a]
        _toggle(self.r, xa & za, lane)
        _exchange(xa, za, lane)

    def s(self, a: int, mask: Optional[np.ndarray] = None) -> None:
        lane = _lanes(mask)
        xa, za = self.x[a], self.z[a]
        _toggle(self.r, xa & za, lane)
        _toggle(za, xa, lane)

    def sdg(self, a: int, mask: Optional[np.ndarray] = None) -> None:
        lane = _lanes(mask)
        xa, za = self.x[a], self.z[a]
        _toggle(self.r, xa & ~za, lane)
        _toggle(za, xa, lane)

    def x_gate(self, a: int, mask: Optional[np.ndarray] = None) -> None:
        _toggle(self.r, self.z[a], _lanes(mask))

    def y_gate(self, a: int, mask: Optional[np.ndarray] = None) -> None:
        _toggle(self.r, self.x[a] ^ self.z[a], _lanes(mask))

    def z_gate(self, a: int, mask: Optional[np.ndarray] = None) -> None:
        _toggle(self.r, self.x[a], _lanes(mask))

    # ------------------------------------------------------------------
    # Masked two-qubit Cliffords
    # ------------------------------------------------------------------
    def cx(self, a: int, b: int, mask: Optional[np.ndarray] = None) -> None:
        lane = _lanes(mask)
        xa, xb = self.x[a], self.x[b]
        za, zb = self.z[a], self.z[b]
        _toggle(self.r, xa & zb & ~(xb ^ za), lane)
        _toggle(xb, xa, lane)
        _toggle(za, zb, lane)

    def cz(self, a: int, b: int, mask: Optional[np.ndarray] = None) -> None:
        self.h(b, mask)
        self.cx(a, b, mask)
        self.h(b, mask)

    def swap(self, a: int, b: int, mask: Optional[np.ndarray] = None) -> None:
        lane = _lanes(mask)
        _exchange(self.x[a], self.x[b], lane)
        _exchange(self.z[a], self.z[b], lane)

    # ------------------------------------------------------------------
    # Measurement / reset
    # ------------------------------------------------------------------
    def measure(self, a: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Z-measurement of qubit ``a`` on the masked shots.

        Returns a ``(B,)`` uint8 array; entries outside the mask are 0
        and the corresponding states are untouched.
        """
        B = self.batch_size
        outcomes = np.zeros(B, dtype=np.uint8)
        # Random where some stabilizer row holds X_a.
        rand = self.x[a, 1].any(axis=0)
        if mask is None:
            det = ~rand
        else:
            rand &= mask
            det = mask & ~rand
        k = np.count_nonzero(det)
        if k:
            shots = slice(None) if k == B else np.nonzero(det)[0]
            outcomes[shots] = self._measure_det(a, shots)
        k = np.count_nonzero(rand)
        if k:
            outcomes[rand] = self._measure_rand(a, rand, k)
        return outcomes

    def _measure_det(self, a: int, shots) -> np.ndarray:
        """Deterministic branch: qubit in a Z-eigenstate in these shots.

        The outcome is the sign of the ordered product of the stabilizer
        rows picked by the destabilizers holding ``X_a``.  With each row
        ``(-1)^r prod_q i^(x z) X^x Z^z`` that product's phase exponent
        is ``sum(x & z) + 2 sum(r) + 2 sum_q sum_j x_j (xor_{i<j} z_i)``
        (an ``X`` moved left past an earlier row's ``Z`` flips the
        sign), and the result is ``+-Z...`` so it is 0 or 2 mod 4.
        """
        picked = self.x[a, 0][:, shots]                 # (Wn, k)
        xs = self.x[:, 1][..., shots] & picked          # (n, Wn, k)
        zs = self.z[:, 1][..., shots] & picked
        # Exclusive prefix-XOR of zs over rows: log-shift scan inside a
        # word, parity of the earlier words carried in.
        scan = zs.copy()
        shift = 1
        while shift < min(self.n, 64):
            scan ^= scan << np.uint64(shift)
            shift *= 2
        before = scan << _ONE
        if scan.shape[1] > 1:
            parity = scan >> np.uint64(63)
            carry = np.bitwise_xor.accumulate(parity, axis=1) ^ parity
            before ^= carry * _FULL
        flips = np.bitwise_xor.reduce(xs & before, axis=0)
        flips ^= self.r[1][:, shots] & picked
        sign = popcount_words(np.bitwise_xor.reduce(flips, axis=0))
        ys = popcount_words(xs & zs).sum(axis=(0, 1))
        return (((ys >> 1) + sign) & 1).astype(np.uint8)

    def _measure_rand(self, a: int, sel: np.ndarray, k: int) -> np.ndarray:
        """Random branch on the ``k`` shots of boolean ``sel``: some
        stabilizer anticommutes with Z_a.

        Every row holding ``X_a`` except the pivot absorbs the pivot row
        ``p`` (CHP ``rowsum``) — all rows at once: row ``p`` is
        broadcast as one all-ones/zeros lane per column, and the phase
        ``sum_q g`` is taken mod 4 bit-sliced over the column axis
        (``g != 0`` where the two single-qubit Paulis anticommute,
        ``g = -1`` on the ``neg`` subset, so bit 1 of the sum is bit 1
        of ``count(anti)`` XOR ``parity(neg)``).

        A branch taken by most of the batch runs in place over all of
        it — a shot outside ``sel`` gets no pivot and no target row, so
        every update below is the identity there; a sparse one gathers
        its shots and scatters them back.
        """
        dense = 2 * k > self.batch_size
        if dense:
            xs, zs, rs = self.x, self.z, self.r
        else:
            shots = np.nonzero(sel)[0]
            xs, zs, rs = self.x[..., shots], self.z[..., shots], \
                self.r[..., shots]
        # Pivot: the first stabilizer row holding X_a, as a one-hot word.
        cand = xs[a, 1]                                 # (Wn, k)
        held = cand != _ZERO
        first = held & (np.cumsum(held, axis=0) == 1)
        tgt = xs[a].copy()                              # (2, Wn, k)
        if dense:
            first &= sel
            tgt &= _lanes(sel)
        piv = np.where(first, cand & (~cand + _ONE), _ZERO)
        keep = ~piv
        tgt[1] &= keep
        xp = _lanes((xs[:, 1] & piv).any(axis=1))       # (n, k)
        zp = _lanes((zs[:, 1] & piv).any(axis=1))
        rp = _lanes((rs[1] & piv).any(axis=0))          # (k,)
        xp4, zp4 = xp[:, None, None], zp[:, None, None]
        anti = (xs & zp4) ^ (zs & xp4)                  # (n, 2, Wn, k)
        neg = (xs ^ zs ^ (xp4 ^ zp4) ^ (xp4 & zs)) & anti
        twos = anti & ~np.bitwise_xor.accumulate(anti, axis=0)
        phase = np.bitwise_xor.reduce(twos ^ neg, axis=0)
        rs ^= (phase ^ rp) & tgt
        xs ^= xp4 & tgt
        zs ^= zp4 & tgt
        outcome = self.rng.integers(0, 2, size=k, dtype=np.uint8)
        if dense:
            drawn = np.zeros(self.batch_size, dtype=bool)
            drawn[sel] = outcome
        else:
            drawn = outcome.astype(bool)
        # Row p leaves both halves; the destabilizer slot p-n receives
        # the old stabilizer row p, and row p becomes +/- Z_a with the
        # fresh random outcome.
        xs &= keep
        zs &= keep
        rs &= keep
        xs[:, 0] |= xp[:, None] & piv
        zs[:, 0] |= zp[:, None] & piv
        rs[0] |= rp & piv
        zs[a, 1] |= piv
        rs[1] |= _lanes(drawn) & piv
        if not dense:
            self.x[..., shots] = xs
            self.z[..., shots] = zs
            self.r[..., shots] = rs
        return outcome

    def reset(self, a: int, mask: Optional[np.ndarray] = None) -> None:
        """Reset qubit ``a`` to |0> on the masked shots."""
        outcomes = self.measure(a, mask)
        flip = outcomes.astype(bool)
        if mask is not None:
            flip &= mask
        if flip.any():
            self.x_gate(a, flip)

    # ------------------------------------------------------------------
    # Circuit execution
    # ------------------------------------------------------------------
    def apply(self, gate: Gate, mask: Optional[np.ndarray] = None,
              record: Optional[np.ndarray] = None) -> None:
        """Apply one gate (optionally masked) across the batch."""
        gt = gate.gate_type
        if gt is GateType.I or gt is GateType.BARRIER:
            return
        if gt is GateType.X:
            self.x_gate(gate.qubits[0], mask)
        elif gt is GateType.Y:
            self.y_gate(gate.qubits[0], mask)
        elif gt is GateType.Z:
            self.z_gate(gate.qubits[0], mask)
        elif gt is GateType.H:
            self.h(gate.qubits[0], mask)
        elif gt is GateType.S:
            self.s(gate.qubits[0], mask)
        elif gt is GateType.SDG:
            self.sdg(gate.qubits[0], mask)
        elif gt is GateType.CX:
            self.cx(*gate.qubits, mask=mask)
        elif gt is GateType.CZ:
            self.cz(*gate.qubits, mask=mask)
        elif gt is GateType.SWAP:
            self.swap(*gate.qubits, mask=mask)
        elif gt is GateType.RESET:
            self.reset(gate.qubits[0], mask)
        elif gt is GateType.MEASURE:
            outcomes = self.measure(gate.qubits[0], mask)
            if record is not None:
                if mask is None:
                    record[:, gate.cbit] = outcomes
                else:
                    record[mask, gate.cbit] = outcomes[mask]
        else:  # pragma: no cover - defensive
            raise NotImplementedError(gt)

    def run(self, circuit: Circuit) -> np.ndarray:
        """Run a (noise-free) circuit on every shot.

        Returns the measurement record, shape ``(B, num_cbits)`` uint8.
        """
        if circuit.num_qubits > self.n:
            raise ValueError("circuit wider than simulator register")
        record = np.zeros((self.batch_size, max(circuit.num_cbits, 1)),
                          dtype=np.uint8)
        for gate in circuit:
            self.apply(gate, record=record)
        return record

    # ------------------------------------------------------------------
    def shot_tableau(self, shot: int):
        """Extract one shot's state as a single :class:`Tableau`."""
        def rows(packed: np.ndarray) -> np.ndarray:
            # (..., 2, Wn) words -> (..., 2n) bits in tableau row order.
            bits = np.unpackbits(
                np.ascontiguousarray(packed).view(np.uint8), axis=-1,
                bitorder="little")[..., :self.n]
            return bits.reshape(*packed.shape[:-2], 2 * self.n)

        t = Tableau(self.n)
        t.x = rows(self.x[..., shot]).T.copy()
        t.z = rows(self.z[..., shot]).T.copy()
        t.r = rows(self.r[..., shot])
        return t


def apply_sites(table: SiteTable, gate: Gate, sim: BatchTableauSimulator,
                rng: np.random.Generator) -> None:
    """The sites of ``table`` after ``gate``, across the whole batch.

    Per site, in column order, one ``rng.random(B)`` row and the fault
    applied on the shots it selects — except a certain reset site of a
    table that does not draw there, which resets every shot.  A tilted
    table's sites also add their log-likelihood ratios to
    ``sim.log_weights``.
    """
    r, columns = table.sites_after(gate)
    probs = table.table[r]
    B = sim.batch_size
    for c in columns:
        p = probs[c]
        if table.kind == FLIP:
            q, axis = divmod(c, 2)
            mask = rng.random(B) < p
            if mask.any():
                (sim.z_gate if axis else sim.x_gate)(q, mask)
            continue
        if table.kind == RESET:
            if p >= 1.0 and not table.draw_certain:
                sim.reset(c)
                continue
            mask = rng.random(B) < p
            if mask.any():
                sim.reset(c, mask)
            continue
        third = p / 3.0
        u = rng.random(B)
        if table.llr is not None:
            hit, miss = table.llr[:, r, c]
            if hit or miss:
                sim.log_weights += np.where(u < p, hit, miss)
        mx = u < third
        my = (u >= third) & (u < 2 * third)
        mz = (u >= 2 * third) & (u < p)
        if mx.any():
            sim.x_gate(c, mx)
        if my.any():
            sim.y_gate(c, my)
        if mz.any():
            sim.z_gate(c, mz)


def numpy_walk(circuit: Circuit, noise: Optional[NoiseModel],
               batch_size: int, rng: np.random.Generator, tilt=None):
    """``run_batch_noisy(..., backend="tableau")``'s oracle, with its
    return convention: ``circuit`` gate by gate on a
    :class:`BatchTableauSimulator`, each channel's sites after each
    gate in model order — read :meth:`~repro.noise.base.SiteTable.
    tilted` under ``tilt``."""
    sim = BatchTableauSimulator(circuit.num_qubits, batch_size, rng=rng)
    record = np.zeros((batch_size, max(circuit.num_cbits, 1)), dtype=np.uint8)
    if tilt is not None:
        sim.log_weights = np.zeros(batch_size)
    channels = [] if noise is None else list(noise)
    if noise is not None:
        noise.begin_run()
    tables = [ch.site_table(circuit.num_qubits) for ch in channels]
    if tilt is not None:
        tables = [t.tilted(tilt) for t in tables]
    for gate in circuit:
        sim.apply(gate, record=record)
        if gate.gate_type is GateType.BARRIER:
            continue
        for channel, table in zip(channels, tables):
            channel.observe(gate)
            apply_sites(table, gate, sim, rng)
    return record if tilt is None else (record, np.exp(sim.log_weights))
