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

    def test_barrier_defaults_to_all_qubits(self):
        c = Circuit(3).barrier()
        assert c[0].qubits == (0, 1, 2)

    def test_extend(self):
        gates = [Gate(GateType.X, (0,)), Gate(GateType.H, (1,))]
        c = Circuit(2).extend(gates)
        assert [g.gate_type for g in c] == [GateType.X, GateType.H]


class TestIntrospection:
    def test_depth_parallel_gates(self):
        c = Circuit(4).h(0).h(1).h(2).h(3)
        assert c.depth() == 1

    def test_depth_serial_chain(self):
        c = Circuit(2).cx(0, 1).cx(0, 1).cx(0, 1)
        assert c.depth() == 3

    def test_depth_mixed(self):
        c = Circuit(3).h(0).cx(0, 1).x(2)
        assert c.depth() == 2

    def test_num_two_qubit_gates(self):
        c = Circuit(3).cx(0, 1).swap(1, 2).h(0)
        assert c.num_two_qubit_gates == 2

    def test_qubits_used_ignores_barriers(self):
        c = Circuit(5).x(1).barrier(0, 4)
        assert c.qubits_used() == (1,)

    def test_interaction_graph_counts(self):
        c = Circuit(3).cx(0, 1).cx(1, 0).cz(1, 2)
        graph = c.interaction_graph()
        assert graph[(0, 1)] == 2
        assert graph[(1, 2)] == 1


class TestTransformation:
    def test_compose_identity_map(self):
        a = Circuit(2).h(0)
        b = Circuit(2).cx(0, 1)
        a.compose(b)
        assert len(a) == 2
        assert a[1].gate_type is GateType.CX

    def test_compose_with_qubit_map(self):
        a = Circuit(3)
        b = Circuit(2).cx(0, 1)
        a.compose(b, qubit_map=[2, 0])
        assert a[0].qubits == (2, 0)

    def test_compose_offsets_cbits(self):
        a = Circuit(1).measure(0, 0)
        b = Circuit(1).measure(0, 0)
        a.compose(b)
        assert a[1].cbit == 1
        assert a.num_cbits == 2

    def test_inverse_reverses_and_inverts(self):
        c = Circuit(1).h(0).s(0)
        inv = c.inverse()
        assert [g.gate_type for g in inv] == [GateType.SDG, GateType.H]

    def test_inverse_rejects_measurement(self):
        with pytest.raises(ValueError):
            Circuit(1).measure(0, 0).inverse()

    def test_copy_is_independent(self):
        c = Circuit(1).x(0)
        d = c.copy()
        d.h(0)
        assert len(c) == 1
        assert len(d) == 2

    def test_equality(self):
        assert Circuit(1).x(0) == Circuit(1).x(0)
        assert Circuit(1).x(0) != Circuit(1).y(0)
