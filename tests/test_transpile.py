"""Tests for layout selection and SWAP routing."""

import numpy as np
import pytest

from repro.arch import complete, linear, mesh, cairo
from repro.circuits import Circuit, Gate, GateType
from repro.codes import RepetitionCode, XXZZCode, build_memory_experiment
from repro.transpile import (
    GreedyConnectedLayout,
    SnakeLayout,
    TrivialLayout,
    transpile,
)

from oracles.chp import TableauSimulator
from oracles.circuits import check_connectivity


def ghz_circuit(n):
    c = Circuit(n, name="ghz")
    c.h(0)
    for i in range(n - 1):
        c.cx(0, i + 1)
    for i in range(n):
        c.measure(i, i)
    return c


class TestLayouts:
    def test_trivial_layout_identity(self):
        layout = TrivialLayout().place(ghz_circuit(4), linear(6))
        assert layout == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_trivial_layout_rejects_small_arch(self):
        with pytest.raises(ValueError):
            TrivialLayout().place(ghz_circuit(4), linear(3))

    def test_greedy_layout_covers_all_qubits(self):
        layout = GreedyConnectedLayout().place(ghz_circuit(5), mesh(3, 3))
        assert sorted(layout.keys()) == list(range(5))
        assert len(set(layout.values())) == 5

    def test_greedy_places_hub_on_high_degree(self):
        # GHZ hub (qubit 0) interacts with everyone: should get a
        # well-connected physical qubit, not a corner.
        layout = GreedyConnectedLayout().place(ghz_circuit(5), mesh(3, 3))
        arch = mesh(3, 3)
        assert arch.degree(layout[0]) >= 3

    def test_snake_layout_chain_is_contiguous(self):
        # A pure chain circuit on a line must map with stride 1.
        c = Circuit(4)
        for i in range(3):
            c.cx(i, i + 1)
        layout = SnakeLayout().place(c, linear(4))
        positions = [layout[i] for i in range(4)]
        assert sorted(np.abs(np.diff(positions))) == [1, 1, 1]

    def test_snake_layout_on_positionless_graph(self):
        c = Circuit(4)
        for i in range(3):
            c.cx(i, i + 1)
        layout = SnakeLayout().place(c, cairo())
        assert len(set(layout.values())) == 4


class TestRouting:
    def test_connectivity_enforced(self):
        routed = transpile(ghz_circuit(6), linear(8))
        assert check_connectivity(routed.circuit, linear(8)) == []

    def test_no_swaps_on_complete_graph(self):
        routed = transpile(ghz_circuit(6), complete(6))
        assert routed.swap_count == 0

    def test_swaps_tagged(self):
        routed = transpile(ghz_circuit(6), linear(8))
        tags = {g.tag for g in routed.circuit
                if g.gate_type is GateType.SWAP}
        assert tags <= {"route"}
        assert routed.swap_count > 0

    def test_decompose_swaps(self):
        routed = transpile(ghz_circuit(5), linear(6), decompose_swaps=True)
        assert not any(g.gate_type is GateType.SWAP for g in routed.circuit)
        assert routed.swap_count > 0

    def test_ghz_semantics_preserved(self):
        routed = transpile(ghz_circuit(6), linear(10))
        for seed in range(20):
            rec = TableauSimulator(10, rng=seed).run(routed.circuit)
            assert len(set(rec.values())) == 1  # all-equal GHZ outcomes

    def test_deterministic_records_preserved(self):
        c = Circuit(5)
        c.x(0)
        c.cx(0, 3)
        c.cx(3, 4)
        for i in range(5):
            c.measure(i, i)
        routed = transpile(c, linear(8))
        a = TableauSimulator(5, rng=0).run(c)
        b = TableauSimulator(8, rng=0).run(routed.circuit)
        assert a == b

    def test_barrier_remapped(self):
        c = Circuit(2)
        c.append(Gate(GateType.BARRIER, (0, 1)))
        c.cx(0, 1)
        routed = transpile(c, linear(4), layout={0: 1, 1: 3})
        assert routed.circuit[0].gate_type is GateType.BARRIER
        assert set(routed.circuit[0].qubits) == {1, 3}

    def test_explicit_layout_dict(self):
        c = Circuit(2).cx(0, 1)
        routed = transpile(c, linear(4), layout={0: 0, 1: 3})
        assert routed.swap_count == 2

    def test_non_injective_layout_rejected(self):
        c = Circuit(2).cx(0, 1)
        with pytest.raises(ValueError):
            transpile(c, linear(4), layout={0: 1, 1: 1})

    def test_unknown_layout_rejected(self):
        with pytest.raises(KeyError):
            transpile(ghz_circuit(3), linear(4), layout="magic")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            transpile(ghz_circuit(3), linear(4), routing="psychic")

    def test_final_layout_tracks_swaps(self):
        c = Circuit(2).cx(0, 1)
        routed = transpile(c, linear(4), layout={0: 0, 1: 3})
        # Logical qubits must sit where the mapping says they do.
        assert set(routed.final_layout.keys()) == {0, 1}


class TestRoutingQuality:
    def test_lookahead_beats_walk_first_on_codes(self):
        exp = build_memory_experiment(RepetitionCode(11))
        naive = transpile(exp.circuit, mesh(5, 6), layout="snake",
                          routing="walk-first")
        smart = transpile(exp.circuit, mesh(5, 6), layout="snake",
                          routing="lookahead")
        assert smart.swap_count <= naive.swap_count

    def test_best_layout_not_worse_than_each(self):
        exp = build_memory_experiment(XXZZCode(3, 3))
        arch = mesh(5, 4)
        best = transpile(exp.circuit, arch, layout="best")
        for name in ["trivial", "greedy", "snake"]:
            other = transpile(exp.circuit, arch, layout=name)
            assert best.swap_count <= other.swap_count

    def test_xxzz_linear_much_worse_than_mesh(self):
        """Observation VIII's mechanism: XXZZ needs degree >= 4."""
        exp = build_memory_experiment(XXZZCode(3, 3))
        on_mesh = transpile(exp.circuit, mesh(5, 4), layout="best")
        on_line = transpile(exp.circuit, linear(18), layout="best")
        assert on_line.swap_count > 2 * on_mesh.swap_count

    def test_repetition_linear_is_cheap(self):
        exp = build_memory_experiment(RepetitionCode(11))
        on_line = transpile(exp.circuit, linear(22), layout="best")
        # The syndrome chain embeds perfectly; only the readout walks.
        assert on_line.swap_count < 30
