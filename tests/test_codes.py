"""Tests for the repetition and XXZZ code geometry + memory circuits."""

import numpy as np
import pytest

from repro.codes import (
    QubitRole,
    RepetitionCode,
    RotatedLattice,
    XXZZCode,
    build_memory_experiment,
)

from oracles.tableau import BatchTableauSimulator
from oracles.syndromes import data_measurements, syndromes


class TestRepetitionGeometry:
    def test_paper_qubit_count(self):
        # q_rep = 2n (paper §IV-A).
        for d in (3, 5, 7, 15):
            assert RepetitionCode(d).num_qubits == 2 * d

    def test_even_distance_rejected(self):
        with pytest.raises(ValueError):
            RepetitionCode(4)

    def test_distance_tuple(self):
        assert RepetitionCode(5).distance == (5, 1)
        assert RepetitionCode(5, basis="X").distance == (1, 5)

    def test_bitflip_has_only_z_checks(self):
        code = RepetitionCode(5)
        assert len(code.z_plaquettes) == 4
        assert code.x_plaquettes == []

    def test_phaseflip_has_only_x_checks(self):
        code = RepetitionCode(5, basis="X")
        assert len(code.x_plaquettes) == 4
        assert code.z_plaquettes == []

    def test_checks_are_nearest_neighbour(self):
        code = RepetitionCode(7)
        assert code.z_plaquettes == [(i, i + 1) for i in range(6)]

    def test_roles(self):
        code = RepetitionCode(3)
        assert code.role(0) is QubitRole.DATA
        assert code.role(3) is QubitRole.STABILIZER_Z
        assert code.role(5) is QubitRole.READOUT

    def test_role_unknown_qubit(self):
        with pytest.raises(ValueError):
            RepetitionCode(3).role(99)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_invariants(self, d):
        RepetitionCode(d).validate()
        RepetitionCode(d, basis="X").validate()


class TestRotatedLattice:
    def test_3x3_counts(self):
        lat = RotatedLattice(3, 3)
        assert len(lat.z_plaquettes) == 4
        assert len(lat.x_plaquettes) == 4

    def test_rectangular_counts(self):
        # (R-1)(C+1)/2 Z checks, (C-1)(R+1)/2 X checks.
        lat = RotatedLattice(3, 5)
        assert len(lat.z_plaquettes) == 6
        assert len(lat.x_plaquettes) == 8
        lat = RotatedLattice(5, 3)
        assert len(lat.z_plaquettes) == 8
        assert len(lat.x_plaquettes) == 6

    def test_total_checks_always_n_minus_1(self):
        for r, c in [(1, 3), (3, 1), (3, 3), (3, 5), (5, 3), (5, 5)]:
            lat = RotatedLattice(r, c)
            assert (len(lat.z_plaquettes) + len(lat.x_plaquettes)
                    == r * c - 1)

    def test_degenerate_column_is_repetition(self):
        lat = RotatedLattice(3, 1)
        assert len(lat.z_plaquettes) == 2
        assert len(lat.x_plaquettes) == 0

    def test_degenerate_row_is_phase_repetition(self):
        lat = RotatedLattice(1, 3)
        assert len(lat.z_plaquettes) == 0
        assert len(lat.x_plaquettes) == 2

    def test_bulk_plaquettes_weight_four(self):
        lat = RotatedLattice(3, 3)
        weights = sorted(len(p.data) for p in
                         lat.z_plaquettes + lat.x_plaquettes)
        assert weights == [2, 2, 2, 2, 4, 4, 4, 4]

    def test_logical_supports(self):
        lat = RotatedLattice(3, 5)
        assert len(lat.logical_x_data()) == 3   # vertical, d_Z
        assert len(lat.logical_z_data()) == 5   # horizontal, d_X

    def test_data_index_roundtrip(self):
        lat = RotatedLattice(3, 4)
        for r in range(3):
            for c in range(4):
                assert divmod(lat.data_index(r, c), lat.cols) == (r, c)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            RotatedLattice(0, 3)


class TestXXZZGeometry:
    def test_paper_qubit_count(self):
        # q_XXZZ = 2 dZ dX (paper §IV-B).
        assert XXZZCode(3, 3).num_qubits == 18
        assert XXZZCode(3, 5).num_qubits == 30
        assert XXZZCode(5, 3).num_qubits == 30
        assert XXZZCode(3, 1).num_qubits == 6

    def test_even_distance_rejected(self):
        with pytest.raises(ValueError):
            XXZZCode(2, 3)

    @pytest.mark.parametrize("dz,dx", [(1, 3), (3, 1), (3, 3), (3, 5), (5, 3)])
    def test_invariants(self, dz, dx):
        XXZZCode(dz, dx).validate()

    def test_logical_weights_match_distances(self):
        code = XXZZCode(5, 3)
        assert len(code.logical_x_support) == 5
        assert len(code.logical_z_support) == 3

    def test_logical_anticommute(self):
        code = XXZZCode(3, 3)
        assert not code.logical_x_pauli().commutes_with(
            code.logical_z_pauli())

    def test_qubit_ordering_matches_figure(self):
        """Fig. 1 numbering: data, then mz, then mx, then readout."""
        code = XXZZCode(3, 3)
        assert code.data_qubits == list(range(9))
        assert code.z_ancillas == list(range(9, 13))
        assert code.x_ancillas == list(range(13, 17))
        assert code.readout_qubit == 17


class TestMemoryExperiment:
    @pytest.mark.parametrize("code", [
        RepetitionCode(3), RepetitionCode(5),
        XXZZCode(3, 3), XXZZCode(3, 1), XXZZCode(1, 3),
    ])
    def test_noiseless_readout_is_one(self, code):
        exp = build_memory_experiment(code)
        sim = BatchTableauSimulator(exp.circuit.num_qubits, 48, rng=11)
        rec = sim.run(exp.circuit)
        assert (exp.raw_readout(rec) == 1).all()

    def test_noiseless_z_syndromes_zero(self):
        exp = build_memory_experiment(XXZZCode(3, 3))
        rec = BatchTableauSimulator(18, 32, rng=1).run(exp.circuit)
        assert (syndromes(exp, rec, "Z") == 0).all()

    def test_noiseless_x_syndromes_repeat(self):
        exp = build_memory_experiment(XXZZCode(3, 3))
        rec = BatchTableauSimulator(18, 32, rng=2).run(exp.circuit)
        xs = syndromes(exp, rec, "X")
        assert (xs[:, 0, :] == xs[:, 1, :]).all()

    def test_x_basis_memory(self):
        exp = build_memory_experiment(RepetitionCode(5, basis="X"),
                                      basis="X")
        rec = BatchTableauSimulator(10, 32, rng=3).run(exp.circuit)
        assert (exp.raw_readout(rec) == 1).all()

    def test_data_measurement_parity_matches_readout(self):
        """Noiselessly, the data-bit parity over the logical support
        must equal the ancilla readout."""
        code = XXZZCode(3, 3)
        exp = build_memory_experiment(code)
        rec = BatchTableauSimulator(18, 32, rng=4).run(exp.circuit)
        data = data_measurements(exp, rec)
        col = {q: i for i, q in enumerate(code.data_qubits)}
        parity = np.zeros(32, dtype=np.uint8)
        for q in code.logical_z_support:
            parity ^= data[:, col[q]]
        np.testing.assert_array_equal(parity, exp.raw_readout(rec))

    def test_rounds_parameter(self):
        exp = build_memory_experiment(RepetitionCode(3), rounds=4)
        assert len(exp.z_syndrome_cbits) == 4
        rec = BatchTableauSimulator(6, 16, rng=5).run(exp.circuit)
        assert (exp.raw_readout(rec) == 1).all()

    def test_without_data_measurement(self):
        exp = build_memory_experiment(RepetitionCode(3),
                                      include_data_measurement=False)
        assert exp.data_cbits is None
        assert data_measurements(
            exp, np.zeros((2, exp.circuit.num_cbits), dtype=np.uint8)) is None

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError):
            build_memory_experiment(RepetitionCode(3), basis="Y")

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValueError):
            build_memory_experiment(RepetitionCode(3), rounds=0)

    def test_logical_after_rounds_applies_at_end(self):
        exp = build_memory_experiment(RepetitionCode(3), rounds=2,
                                      logical_after=2)
        rec = BatchTableauSimulator(6, 16, rng=6).run(exp.circuit)
        assert (exp.raw_readout(rec) == 1).all()

    def test_syndrome_cbit_layout_disjoint(self):
        exp = build_memory_experiment(XXZZCode(3, 3))
        flat = [c for row in exp.z_syndrome_cbits for c in row]
        flat += [c for row in exp.x_syndrome_cbits for c in row]
        flat.append(exp.readout_cbit)
        flat += list(exp.data_cbits.values())
        assert len(flat) == len(set(flat)) == exp.circuit.num_cbits
