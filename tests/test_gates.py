"""Unit tests for the gate definitions."""

import pytest

from repro.circuits import Circuit, Gate, GateType
from repro.circuits.gates import (
    SINGLE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    UNITARY_GATES,
)
from repro.noise import run_batch_noisy

#: The simulator backends a gate's action is checked on.
BACKENDS = ("tableau", "frames")

#: Gates that undo themselves (up to a global phase).
SELF_INVERSE_GATES = sorted(
    {GateType.I, GateType.X, GateType.Y, GateType.Z, GateType.H,
     GateType.CX, GateType.CZ, GateType.SWAP}, key=lambda g: g.value)


def bell_check(gate_types, backend, shots=64):
    """Bell-basis outcomes after ``gate_types`` act, in order, on qubit 0
    (qubits 0 and 1 for a two-qubit gate) of the Bell pairs (0, 2) and
    (1, 3).

    The pairs are unprepared and measured afterwards, so every row is all
    zeros exactly when the sequence acts as the identity up to a phase.
    """
    c = Circuit(4)
    for sys, ref in ((0, 2), (1, 3)):
        c.h(ref).cx(ref, sys)
    for gt in gate_types:
        qubits = (0, 1) if gt in TWO_QUBIT_GATES else (0,)
        cbit = 4 if gt is GateType.MEASURE else None
        c.append(Gate(gt, qubits, cbit=cbit))
    for sys, ref in ((0, 2), (1, 3)):
        c.cx(ref, sys).h(ref)
    for q in range(4):
        c.measure(q, q)
    return run_batch_noisy(c, None, shots, rng=1, backend=backend)[:, :4]


class TestGateConstruction:
    def test_single_qubit_gate(self):
        g = Gate(GateType.H, (3,))
        assert g.qubits == (3,)
        assert g.num_qubits == 1

    def test_two_qubit_gate(self):
        g = Gate(GateType.CX, (0, 1))
        assert g.num_qubits == 2

    def test_two_qubit_gate_rejects_single_operand(self):
        with pytest.raises(ValueError):
            Gate(GateType.CX, (0,))

    def test_two_qubit_gate_rejects_duplicate_operands(self):
        with pytest.raises(ValueError):
            Gate(GateType.CZ, (2, 2))

    def test_single_qubit_gate_rejects_two_operands(self):
        with pytest.raises(ValueError):
            Gate(GateType.H, (0, 1))

    def test_measure_requires_cbit(self):
        with pytest.raises(ValueError):
            Gate(GateType.MEASURE, (0,))

    def test_measure_with_cbit(self):
        g = Gate(GateType.MEASURE, (0,), cbit=4)
        assert g.cbit == 4

    def test_non_measure_rejects_cbit(self):
        with pytest.raises(ValueError):
            Gate(GateType.X, (0,), cbit=0)

    def test_barrier_accepts_many_qubits(self):
        g = Gate(GateType.BARRIER, (0, 1, 2))
        assert g.is_barrier

    def test_barrier_rejects_empty(self):
        with pytest.raises(ValueError):
            Gate(GateType.BARRIER, ())


class TestGateInverse:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("gt", SELF_INVERSE_GATES)
    def test_self_inverse(self, gt, backend):
        assert not bell_check([gt, gt], backend).any()
        if gt is not GateType.I:
            # One application is seen, so the check above has teeth.
            assert bell_check([gt], backend).any()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_s_inverse_is_sdg(self, backend):
        assert not bell_check([GateType.S, GateType.SDG], backend).any()
        assert not bell_check([GateType.SDG, GateType.S], backend).any()
        # S is not self-inverse: S^2 = Z, and S^4 = I.
        assert bell_check([GateType.S] * 2, backend).any()
        assert not bell_check([GateType.S] * 4, backend).any()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_measure_has_no_inverse(self, backend):
        # A second measurement repeats the first rather than undoing it:
        # qubit 0 stays decohered from its partner.
        assert bell_check([GateType.MEASURE] * 2, backend).any()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reset_has_no_inverse(self, backend):
        assert bell_check([GateType.RESET] * 2, backend).any()


class TestGateSets:
    def test_unitary_and_nonunitary_partition(self):
        assert GateType.MEASURE not in UNITARY_GATES
        assert GateType.RESET not in UNITARY_GATES
        assert GateType.BARRIER not in UNITARY_GATES

    def test_single_two_qubit_sets_disjoint(self):
        assert not (SINGLE_QUBIT_GATES & TWO_QUBIT_GATES)

    def test_str_rendering(self):
        assert str(Gate(GateType.CX, (0, 1))) == "cx q0,1"
        assert "-> c3" in str(Gate(GateType.MEASURE, (2,), cbit=3))
