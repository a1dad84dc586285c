"""Unit tests for the gate definitions."""

import pytest

from repro.circuits import Gate, GateType
from repro.circuits.gates import (
    SELF_INVERSE_GATES,
    SINGLE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    UNITARY_GATES,
)


class TestGateConstruction:
    def test_single_qubit_gate(self):
        g = Gate(GateType.H, (3,))
        assert g.qubits == (3,)
        assert g.num_qubits == 1
        assert g.is_unitary

    def test_two_qubit_gate(self):
        g = Gate(GateType.CX, (0, 1))
        assert g.num_qubits == 2
        assert g.is_unitary

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
        assert g.is_measurement
        assert g.cbit == 4
        assert not g.is_unitary

    def test_non_measure_rejects_cbit(self):
        with pytest.raises(ValueError):
            Gate(GateType.X, (0,), cbit=0)

    def test_reset_flags(self):
        g = Gate(GateType.RESET, (1,))
        assert g.is_reset
        assert not g.is_unitary

    def test_barrier_accepts_many_qubits(self):
        g = Gate(GateType.BARRIER, (0, 1, 2))
        assert g.is_barrier

    def test_barrier_rejects_empty(self):
        with pytest.raises(ValueError):
            Gate(GateType.BARRIER, ())


class TestGateInverse:
    @pytest.mark.parametrize("gt", sorted(SELF_INVERSE_GATES,
                                          key=lambda g: g.value))
    def test_self_inverse(self, gt):
        qubits = (0, 1) if gt in TWO_QUBIT_GATES else (0,)
        g = Gate(gt, qubits)
        assert g.inverse() == g

    def test_s_inverse_is_sdg(self):
        assert Gate(GateType.S, (0,)).inverse().gate_type is GateType.SDG
        assert Gate(GateType.SDG, (0,)).inverse().gate_type is GateType.S

    def test_measure_has_no_inverse(self):
        with pytest.raises(ValueError):
            Gate(GateType.MEASURE, (0,), cbit=0).inverse()

    def test_reset_has_no_inverse(self):
        with pytest.raises(ValueError):
            Gate(GateType.RESET, (0,)).inverse()


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
