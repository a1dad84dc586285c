"""Unit tests for the Circuit container."""

import pytest

from repro.circuits import Circuit, Gate, GateType


class TestBuilding:
    def test_empty_circuit(self):
        c = Circuit(3)
        assert len(c) == 0
        assert c.num_qubits == 3
        assert c.num_cbits == 0

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_builder_methods_chain(self):
        c = Circuit(2).h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        assert len(c) == 4
        assert c.num_cbits == 2

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2).x(2)

    def test_cbits_grow_automatically(self):
        c = Circuit(1)
        c.measure(0, 7)
        assert c.num_cbits == 8


class TestIntrospection:
    def test_qubits_used_ignores_barriers(self):
        c = Circuit(5).x(1).append(Gate(GateType.BARRIER, (0, 4)))
        assert c.qubits_used() == (1,)

    def test_interaction_graph_counts(self):
        c = Circuit(3).cx(0, 1).cx(1, 0).append(Gate(GateType.CZ, (1, 2)))
        graph = c.interaction_graph()
        assert graph[(0, 1)] == 2
        assert graph[(1, 2)] == 1


class TestEquality:
    def test_equality(self):
        assert Circuit(1).x(0) == Circuit(1).x(0)
        assert Circuit(1).x(0) != Circuit(1).h(0)
