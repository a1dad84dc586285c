"""Oracle of :mod:`oracles.chp`: a dense statevector simulator.

Exact simulation of the full gate set — including the non-unitary
``RESET`` and ``MEASURE`` — on up to 16 qubits, so that the single-shot
tableau can be cross-validated on arbitrary Clifford circuits
(``tests/test_simulators.py``).

Qubit ordering: qubit 0 is the *most significant* bit of the state
index, matching the left-to-right order of Pauli labels in
:class:`~repro.stabilizer.pauli.PauliString`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.circuits import Circuit, Gate, GateType
from repro.stabilizer import PauliString

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
_I = np.eye(2, dtype=complex)

_SINGLE = {
    GateType.I: _I,
    GateType.X: _X,
    GateType.Y: _Y,
    GateType.Z: _Z,
    GateType.H: _H,
    GateType.S: _S,
    GateType.SDG: _SDG,
}

_MAX_QUBITS = 16


class StatevectorSimulator:
    """Dense simulator over ``num_qubits`` qubits starting from |0...0>."""

    def __init__(self, num_qubits: int,
                 rng: Optional[np.random.Generator | int] = None) -> None:
        if not 1 <= num_qubits <= _MAX_QUBITS:
            raise ValueError(
                f"statevector simulator supports 1..{_MAX_QUBITS} qubits")
        self.n = int(num_qubits)
        self.state = np.zeros(2 ** self.n, dtype=complex)
        self.state[0] = 1.0
        if rng is None:
            rng = np.random.default_rng()
        elif isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self.rng = rng
        self.record: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Qubit q is tensor axis q of the state reshaped to [2] * n.
    def _apply_1q(self, mat: np.ndarray, qubit: int) -> None:
        psi = self.state.reshape([2] * self.n)
        psi = np.moveaxis(psi, qubit, 0)
        psi = np.tensordot(mat, psi, axes=([1], [0]))
        psi = np.moveaxis(psi, 0, qubit)
        self.state = np.ascontiguousarray(psi).reshape(-1)

    def _apply_two(self, mat4: np.ndarray, q0: int, q1: int) -> None:
        psi = self.state.reshape([2] * self.n)
        psi = np.moveaxis(psi, (q0, q1), (0, 1))
        shape = psi.shape
        psi = psi.reshape(4, -1)
        psi = mat4 @ psi
        psi = psi.reshape(shape)
        psi = np.moveaxis(psi, (0, 1), (q0, q1))
        self.state = np.ascontiguousarray(psi).reshape(-1)

    # ------------------------------------------------------------------
    def apply(self, gate: Gate) -> Optional[int]:
        gt = gate.gate_type
        if gt is GateType.BARRIER:
            return None
        if gt in _SINGLE:
            self._apply_1q(_SINGLE[gt], gate.qubits[0])
            return None
        if gt is GateType.CX:
            m = np.eye(4, dtype=complex)
            m[[2, 3]] = m[[3, 2]]
            self._apply_two(m, *gate.qubits)
            return None
        if gt is GateType.CZ:
            m = np.diag([1, 1, 1, -1]).astype(complex)
            self._apply_two(m, *gate.qubits)
            return None
        if gt is GateType.SWAP:
            m = np.eye(4, dtype=complex)
            m[[1, 2]] = m[[2, 1]]
            self._apply_two(m, *gate.qubits)
            return None
        if gt is GateType.MEASURE:
            outcome = self.measure(gate.qubits[0])
            self.record[gate.cbit] = outcome
            return outcome
        if gt is GateType.RESET:
            self.reset(gate.qubits[0])
            return None
        raise NotImplementedError(gt)  # pragma: no cover - defensive

    def run(self, circuit: Circuit) -> Dict[int, int]:
        if circuit.num_qubits > self.n:
            raise ValueError("circuit wider than simulator register")
        for gate in circuit:
            self.apply(gate)
        return dict(self.record)

    # ------------------------------------------------------------------
    def prob_one(self, qubit: int) -> float:
        """Probability of measuring |1> on ``qubit``."""
        psi = self.state.reshape([2] * self.n)
        psi = np.moveaxis(psi, qubit, 0)
        return float(np.sum(np.abs(psi[1]) ** 2))

    def measure(self, qubit: int,
                forced_outcome: Optional[int] = None) -> int:
        p1 = self.prob_one(qubit)
        if forced_outcome is None:
            outcome = int(self.rng.random() < p1)
        else:
            outcome = int(forced_outcome) & 1
            prob = p1 if outcome else 1.0 - p1
            if prob < 1e-12:
                raise ValueError("forced outcome has zero probability")
        psi = self.state.reshape([2] * self.n)
        psi = np.moveaxis(psi, qubit, 0).copy()
        psi[1 - outcome] = 0.0
        norm = np.linalg.norm(psi)
        psi /= norm
        psi = np.moveaxis(psi, 0, qubit)
        self.state = np.ascontiguousarray(psi).reshape(-1)
        return outcome

    def reset(self, qubit: int) -> None:
        if self.measure(qubit):
            self._apply_1q(_X, qubit)

    # ------------------------------------------------------------------
    def expectation(self, pauli: PauliString) -> float:
        """Exact <psi| P |psi> (real part; P assumed Hermitian)."""
        if pauli.num_qubits != self.n:
            raise ValueError("qubit-count mismatch")
        mat = pauli.to_matrix()
        return float(np.real(np.conj(self.state) @ (mat @ self.state)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.state) ** 2
