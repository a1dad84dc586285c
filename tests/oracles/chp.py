"""Oracle of the stabilizer kernels: the Aaronson–Gottesman tableau
(single state) and a single-shot circuit simulator on it.

:class:`Tableau` tracks ``2n`` rows — ``n`` destabilizers followed by
``n`` stabilizers — each a Pauli in the symplectic representation, plus
a sign bit per row.  Gate conjugation and measurement follow the CHP
algorithm (Aaronson & Gottesman, "Improved simulation of stabilizer
circuits", 2004).  :class:`TableauSimulator` executes one shot of a
:class:`~repro.circuits.Circuit` on it, exactly for Clifford +
measure/reset circuits.

The frames reference pass (``repro_frames_reference``, replayed here by
:func:`oracles.frames.replay_reference`) and the numpy batched tableau
(:class:`oracles.tableau.BatchTableauSimulator`, one shot of which is a
:class:`Tableau`) are held to it; it is in turn held to the dense
statevector of :mod:`oracles.statevector`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.circuits import Circuit, Gate, GateType
from repro.stabilizer import PauliString
from oracles.pauli import is_hermitian


def _g(xi: np.ndarray, zi: np.ndarray, xh: np.ndarray, zh: np.ndarray) -> np.ndarray:
    """Phase function of the CHP ``rowsum`` (exponent of i, in {-1,0,1}).

    ``g(x_i, z_i, x_h, z_h)`` gives the exponent contributed by one
    column when multiplying Pauli row ``i`` into row ``h``.
    """
    xi = xi.astype(np.int8)
    zi = zi.astype(np.int8)
    xh = xh.astype(np.int8)
    zh = zh.astype(np.int8)
    return (
        (xi & zi) * (zh - xh)
        + (xi & (1 - zi)) * (zh * (2 * xh - 1))
        + ((1 - xi) & zi) * (xh * (1 - 2 * zh))
    )


class Tableau:
    """Stabilizer tableau for ``n`` qubits, initialised to |0...0>."""

    def __init__(self, num_qubits: int) -> None:
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        n = int(num_qubits)
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        # Destabilizer i = X_i ; stabilizer i = Z_i.
        self.x[np.arange(n), np.arange(n)] = 1
        self.z[np.arange(n, 2 * n), np.arange(n)] = 1

    # ------------------------------------------------------------------
    # Gate conjugations (in-place, O(n) each)
    # ------------------------------------------------------------------
    def h(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.x[:, a], self.z[:, a] = self.z[:, a].copy(), self.x[:, a].copy()

    def s(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.z[:, a] ^= self.x[:, a]

    def sdg(self, a: int) -> None:
        self.r ^= self.x[:, a] & (self.z[:, a] ^ 1)
        self.z[:, a] ^= self.x[:, a]

    def x_gate(self, a: int) -> None:
        self.r ^= self.z[:, a]

    def y_gate(self, a: int) -> None:
        self.r ^= self.x[:, a] ^ self.z[:, a]

    def z_gate(self, a: int) -> None:
        self.r ^= self.x[:, a]

    def cx(self, a: int, b: int) -> None:
        """CNOT with control ``a``, target ``b``."""
        self.r ^= self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a] ^ 1)
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def swap(self, a: int, b: int) -> None:
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

    # ------------------------------------------------------------------
    # rowsum
    # ------------------------------------------------------------------
    def _rowsum(self, h: int, i: int) -> None:
        """Row ``h`` <- row ``h`` * row ``i`` with exact sign tracking."""
        total = (2 * int(self.r[h]) + 2 * int(self.r[i])
                 + int(_g(self.x[i], self.z[i], self.x[h], self.z[h]).sum()))
        self.r[h] = (total % 4) // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    # ------------------------------------------------------------------
    # Measurement / reset
    # ------------------------------------------------------------------
    def measure(self, a: int, rng: np.random.Generator,
                forced_outcome: Optional[int] = None) -> int:
        """Measure qubit ``a`` in the Z basis; collapses the state.

        ``forced_outcome`` pins the result of a *random* measurement
        (used by tests); deterministic outcomes ignore it.
        """
        n = self.n
        stab_x = self.x[n:, a]
        idx = np.nonzero(stab_x)[0]
        if idx.size:
            p = int(idx[0]) + n
            # All other rows containing X_a pick up row p.
            rows = np.nonzero(self.x[:, a])[0]
            for hh in rows:
                if hh != p:
                    self._rowsum(int(hh), p)
            # Destabilizer slot gets the old stabilizer row.
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            # New stabilizer is +/- Z_a.
            if forced_outcome is None:
                outcome = int(rng.integers(0, 2))
            else:
                outcome = int(forced_outcome) & 1
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, a] = 1
            self.r[p] = outcome
            return outcome
        # Deterministic: accumulate stabilizer rows flagged by the
        # destabilizers containing X_a into a scratch row.
        acc_x = np.zeros(n, dtype=np.uint8)
        acc_z = np.zeros(n, dtype=np.uint8)
        acc_r = 0
        for i in range(n):
            if self.x[i, a]:
                total = (2 * acc_r + 2 * int(self.r[i + n])
                         + int(_g(self.x[i + n], self.z[i + n],
                                  acc_x, acc_z).sum()))
                acc_r = (total % 4) // 2
                acc_x ^= self.x[i + n]
                acc_z ^= self.z[i + n]
        return acc_r

    def reset(self, a: int, rng: np.random.Generator) -> None:
        """Non-unitary reset of qubit ``a`` to |0> (measure, flip if 1)."""
        if self.measure(a, rng):
            self.x_gate(a)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _row_pauli(self, row: int) -> PauliString:
        x = self.x[row]
        z = self.z[row]
        n_y = int(np.count_nonzero(x & z))
        phase = (2 * int(self.r[row]) + n_y) % 4
        return PauliString(x.copy(), z.copy(), phase)

    def stabilizers(self) -> List[PauliString]:
        return [self._row_pauli(i) for i in range(self.n, 2 * self.n)]

    def destabilizers(self) -> List[PauliString]:
        return [self._row_pauli(i) for i in range(self.n)]

    def expectation(self, pauli: PauliString) -> int:
        """Expectation value of a Hermitian Pauli: -1, 0 or +1.

        Returns 0 when the operator anticommutes with some stabilizer
        (the state gives a uniformly random outcome), otherwise the
        definite value +/-1.
        """
        if pauli.num_qubits != self.n:
            raise ValueError("qubit-count mismatch")
        if not is_hermitian(pauli):
            raise ValueError("expectation defined for Hermitian Paulis only")
        n = self.n
        # Anticommutation with any stabilizer -> indefinite.
        for i in range(n, 2 * n):
            sym = (int(np.count_nonzero(pauli.x & self.z[i]))
                   + int(np.count_nonzero(pauli.z & self.x[i]))) % 2
            if sym:
                return 0
        # The operator is in the stabilizer group (up to sign): build the
        # generating product using destabilizer pairings.
        acc_x = np.zeros(n, dtype=np.uint8)
        acc_z = np.zeros(n, dtype=np.uint8)
        acc_r = 0
        for i in range(n):
            sym = (int(np.count_nonzero(pauli.x & self.z[i]))
                   + int(np.count_nonzero(pauli.z & self.x[i]))) % 2
            if sym:
                total = (2 * acc_r + 2 * int(self.r[i + n])
                         + int(_g(self.x[i + n], self.z[i + n],
                                  acc_x, acc_z).sum()))
                acc_r = (total % 4) // 2
                acc_x ^= self.x[i + n]
                acc_z ^= self.z[i + n]
        if not (np.array_equal(acc_x, pauli.x) and np.array_equal(acc_z, pauli.z)):
            raise AssertionError(
                "internal error: commuting Pauli not generated by stabilizers")
        # Compare signs: accumulated row represents (-1)^acc_r X^x Z^z with
        # the AG Y-convention; translate to the PauliString phase scheme.
        n_y = int(np.count_nonzero(acc_x & acc_z))
        acc_phase = (2 * acc_r + n_y) % 4
        delta = (pauli.phase - acc_phase) % 4
        if delta == 0:
            return 1
        if delta == 2:
            return -1
        raise AssertionError("non-Hermitian phase mismatch")

    def is_valid(self) -> bool:
        """Check the symplectic invariants of a well-formed tableau.

        Destabilizer i must anticommute with stabilizer i and commute
        with every other row; stabilizers must mutually commute.
        """
        n = self.n

        def sym(i: int, j: int) -> int:
            return (int(np.count_nonzero(self.x[i] & self.z[j]))
                    + int(np.count_nonzero(self.z[i] & self.x[j]))) % 2

        for i in range(n):
            for j in range(n):
                if sym(i + n, j + n) != 0:
                    return False
                want = 1 if i == j else 0
                if sym(i, j + n) != want:
                    return False
        # Full rank: stabilizer rows are independent iff the combined
        # (x|z) matrix has rank n over GF(2).
        m = np.concatenate([self.x[n:], self.z[n:]], axis=1).astype(np.uint8)
        return _gf2_rank(m) == n

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.r = self.r.copy()
        return t


def _gf2_rank(mat: np.ndarray) -> int:
    """Rank of a binary matrix over GF(2) (row elimination)."""
    m = mat.copy() % 2
    rank = 0
    rows, cols = m.shape
    col = 0
    for col in range(cols):
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        piv = rank + int(pivots[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        others = np.nonzero(m[:, col])[0]
        for o in others:
            if o != rank:
                m[o] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


class TableauSimulator:
    """Stateful single-shot simulator.

    Parameters
    ----------
    num_qubits:
        Register width.
    rng:
        NumPy random generator (or an int seed) supplying random
        measurement outcomes.
    """

    def __init__(self, num_qubits: int,
                 rng: Optional[np.random.Generator | int] = None) -> None:
        self.tableau = Tableau(num_qubits)
        if rng is None:
            rng = np.random.default_rng()
        elif isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self.rng = rng
        self.record: Dict[int, int] = {}

    @property
    def num_qubits(self) -> int:
        return self.tableau.n

    # ------------------------------------------------------------------
    def apply(self, gate: Gate) -> Optional[int]:
        """Apply one gate; returns the outcome for measurements."""
        t = self.tableau
        gt = gate.gate_type
        if gt is GateType.I or gt is GateType.BARRIER:
            return None
        if gt is GateType.X:
            t.x_gate(gate.qubits[0])
        elif gt is GateType.Y:
            t.y_gate(gate.qubits[0])
        elif gt is GateType.Z:
            t.z_gate(gate.qubits[0])
        elif gt is GateType.H:
            t.h(gate.qubits[0])
        elif gt is GateType.S:
            t.s(gate.qubits[0])
        elif gt is GateType.SDG:
            t.sdg(gate.qubits[0])
        elif gt is GateType.CX:
            t.cx(*gate.qubits)
        elif gt is GateType.CZ:
            t.cz(*gate.qubits)
        elif gt is GateType.SWAP:
            t.swap(*gate.qubits)
        elif gt is GateType.RESET:
            t.reset(gate.qubits[0], self.rng)
        elif gt is GateType.MEASURE:
            outcome = t.measure(gate.qubits[0], self.rng)
            self.record[gate.cbit] = outcome
            return outcome
        else:  # pragma: no cover - defensive
            raise NotImplementedError(gt)
        return None

    def run(self, circuit: Circuit) -> Dict[int, int]:
        """Execute every gate in order; returns {cbit: outcome}."""
        if circuit.num_qubits > self.num_qubits:
            raise ValueError("circuit wider than simulator register")
        for gate in circuit:
            self.apply(gate)
        return dict(self.record)

    def stabilizers(self):
        return self.tableau.stabilizers()


def run_shot(circuit: Circuit, seed: Optional[int] = None) -> Dict[int, int]:
    """Convenience: run one shot of ``circuit`` from |0...0>."""
    sim = TableauSimulator(circuit.num_qubits, rng=seed)
    return sim.run(circuit)
