"""Cross-module property-based tests (hypothesis).

These exercise whole-pipeline invariants on randomly generated inputs:
transpilation must never change noiseless semantics, codes must decode
any single injected Pauli at any circuit position, and the radiation
model must behave monotonically in time and space.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import linear, mesh
from repro.circuits import Circuit, Gate, GateType
from repro.codes import RepetitionCode, XXZZCode, build_memory_experiment
from repro.decoders import decoder_for
from repro.noise import RadiationEvent
from repro.transpile import transpile

from oracles.circuits import check_connectivity, random_clifford_circuit
from oracles.tableau import BatchTableauSimulator

_SETTINGS = dict(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class TestTranspileProperties:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000),
           layout=st.sampled_from(["trivial", "greedy", "snake", "best"]))
    def test_routing_respects_connectivity(self, seed, layout):
        circ = random_clifford_circuit(6, 30, rng=seed)
        arch = mesh(3, 3)
        routed = transpile(circ, arch, layout=layout)
        assert check_connectivity(routed.circuit, arch) == []

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_routing_preserves_deterministic_records(self, seed):
        """A classical-reversible circuit (X/CX only) has deterministic
        outcomes that must survive routing bit for bit."""
        rng = np.random.default_rng(seed)
        circ = Circuit(5)
        for _ in range(25):
            if rng.random() < 0.4:
                circ.x(int(rng.integers(5)))
            else:
                a, b = rng.choice(5, size=2, replace=False)
                circ.cx(int(a), int(b))
        for q in range(5):
            circ.measure(q, q)
        arch = linear(8)
        routed = transpile(circ, arch, layout="best")
        ref = BatchTableauSimulator(5, 1, rng=0).run(circ)
        got = BatchTableauSimulator(8, 1, rng=0).run(routed.circuit)
        np.testing.assert_array_equal(ref[0, :5], got[0, :5])


class TestCodeDecodeProperties:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 100_000),
           pauli=st.sampled_from(["x", "y"]))
    def test_single_fault_anywhere_decodable_rep5(self, seed, pauli):
        """Any single X/Y fault on a data qubit, inserted at any gate
        boundary before the final round, decodes correctly (bit-flip
        distance 5 >> 1)."""
        code = RepetitionCode(5)
        exp = build_memory_experiment(code)
        dec = decoder_for(exp)
        rng = np.random.default_rng(seed)
        q = int(rng.integers(len(code.data_qubits)))
        # Insert before any gate in the first 60% of the circuit (later
        # positions sit after the last syndrome look at this qubit).
        cut = int(rng.integers(int(len(exp.circuit) * 0.6)))
        circ = Circuit(exp.circuit.num_qubits, exp.circuit.num_cbits)
        for i, g in enumerate(exp.circuit):
            if i == cut:
                circ.append(Gate(GateType(pauli), (q,), tag="inject"))
            circ.append(g)
        rec = BatchTableauSimulator(circ.num_qubits, 2, rng=1).run(circ)
        res = dec.decode_batch(exp, rec)
        assert (res.decoded == 1).all()

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 100_000))
    def test_ancilla_fault_never_flips_logical_xxzz(self, seed):
        """A single X fault on a *syndrome ancilla* may fake a defect
        but must not flip the decoded logical value (measurement errors
        are time-like edges)."""
        code = XXZZCode(3, 3)
        exp = build_memory_experiment(code)
        dec = decoder_for(exp)
        rng = np.random.default_rng(seed)
        ancillas = list(code.z_ancillas) + list(code.x_ancillas)
        q = int(ancillas[rng.integers(len(ancillas))])
        cut = int(rng.integers(len(exp.circuit)))
        circ = Circuit(exp.circuit.num_qubits, exp.circuit.num_cbits)
        for i, g in enumerate(exp.circuit):
            if i == cut:
                circ.x(q, tag="inject")
            circ.append(g)
        rec = BatchTableauSimulator(circ.num_qubits, 2, rng=1).run(circ)
        res = dec.decode_batch(exp, rec)
        assert (res.decoded == 1).all()


class TestRadiationProperties:
    @settings(**_SETTINGS)
    @given(root=st.integers(0, 29), k=st.integers(0, 8))
    def test_probabilities_decay_in_time(self, root, k):
        arch = mesh(5, 6)
        ev = RadiationEvent(root, arch.distances_from(root), 30)
        now = ev.qubit_probabilities(k)
        later = ev.qubit_probabilities(k + 1)
        assert (later <= now + 1e-12).all()

    @settings(**_SETTINGS)
    @given(root=st.integers(0, 29))
    def test_root_is_maximum(self, root):
        arch = mesh(5, 6)
        ev = RadiationEvent(root, arch.distances_from(root), 30)
        probs = ev.qubit_probabilities(0)
        assert probs.argmax() == root
        assert probs[root] == pytest.approx(1.0)

    @settings(**_SETTINGS)
    @given(root=st.integers(0, 29), k=st.integers(0, 9))
    def test_confined_fault_dominated_by_spreading(self, root, k):
        arch = mesh(5, 6)
        spread = RadiationEvent(root, arch.distances_from(root), 30,
                                spread=True).qubit_probabilities(k)
        confined = RadiationEvent(root, arch.distances_from(root), 30,
                                  spread=False).qubit_probabilities(k)
        assert (confined <= spread + 1e-12).all()
