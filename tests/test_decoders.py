"""Decoder correctness tests: MWPM and union-find."""

import numpy as np
import pytest

from repro.circuits import Circuit, Gate, GateType
from repro.codes import RepetitionCode, XXZZCode, build_memory_experiment
from repro.decoders import (
    DetectorGraph,
    MWPMDecoder,
    UnionFindDecoder,
    decoder_for,
)
from repro.noise import DepolarizingNoise, ErasureChannel, NoiseModel, run_batch_noisy

from oracles.tableau import BatchTableauSimulator


def inject_after_round(exp, qubit, n_round0_measurements, gate="x"):
    """Copy of the experiment circuit with an error inserted between the
    two syndrome rounds."""
    circ = Circuit(exp.circuit.num_qubits, exp.circuit.num_cbits)
    seen = 0
    inserted = False
    for g in exp.circuit:
        circ.append(g)
        if g.gate_type is GateType.MEASURE:
            seen += 1
            if seen == n_round0_measurements and not inserted:
                circ.append(Gate(GateType(gate), (qubit,), tag="inject"))
                inserted = True
    return circ


@pytest.mark.parametrize("decoder_kind", ["mwpm", "union-find"])
@pytest.mark.parametrize("code_factory", [
    lambda: RepetitionCode(5),
    lambda: RepetitionCode(15),
    lambda: XXZZCode(3, 3),
    lambda: XXZZCode(5, 3),
])
class TestSingleErrorCorrection:
    def test_corrects_every_single_data_x(self, decoder_kind, code_factory):
        code = code_factory()
        exp = build_memory_experiment(code)
        dec = decoder_for(exp, decoder_kind)
        n0 = len(code.z_ancillas) + len(code.x_ancillas)
        for q in code.data_qubits:
            circ = inject_after_round(exp, q, n0)
            rec = BatchTableauSimulator(circ.num_qubits, 4, rng=3).run(circ)
            res = dec.decode_batch(exp, rec)
            assert (res.decoded == 1).all(), f"{code.name} qubit {q}"


class TestMWPMDetails:
    def test_no_events_no_correction(self):
        exp = build_memory_experiment(RepetitionCode(5))
        dec = decoder_for(exp)
        rec = BatchTableauSimulator(10, 16, rng=0).run(exp.circuit)
        res = dec.decode_batch(exp, rec)
        assert res.corrections.sum() == 0
        assert res.logical_error_rate == 0.0

    def test_decode_result_counters(self):
        exp = build_memory_experiment(RepetitionCode(3))
        dec = decoder_for(exp)
        noise = NoiseModel([DepolarizingNoise(0.05)])
        rec = run_batch_noisy(exp.circuit, noise, 500, rng=1)
        res = dec.decode_batch(exp, rec)
        assert res.num_shots == 500
        assert 0 <= res.num_errors <= 500
        assert res.logical_error_rate == res.num_errors / 500

    def test_decode_detectors_single_event_boundary(self):
        g = DetectorGraph(RepetitionCode(5), rounds=2)
        dec = MWPMDecoder(g, use_final_data=False)
        bits = np.zeros(g.num_nodes, dtype=np.uint8)
        bits[0] = 1  # single event at end plaquette -> matched to boundary
        assert dec.decode_detectors(bits) == 1

    def test_decode_detectors_adjacent_pair(self):
        g = DetectorGraph(RepetitionCode(5), rounds=2)
        dec = MWPMDecoder(g, use_final_data=False)
        bits = np.zeros(g.num_nodes, dtype=np.uint8)
        bits[0] = 1
        bits[1] = 1  # neighbouring plaquettes: one data error between them
        assert dec.decode_detectors(bits) == 1

    def test_decode_detectors_time_pair(self):
        g = DetectorGraph(RepetitionCode(5), rounds=2)
        dec = MWPMDecoder(g, use_final_data=False)
        bits = np.zeros(g.num_nodes, dtype=np.uint8)
        bits[g.node_id(0, 1)] = 1
        bits[g.node_id(1, 1)] = 1  # measurement error: no logical flip
        assert dec.decode_detectors(bits) == 0

    def test_many_events_go_to_blossom(self):
        """Patterns larger than the DP limit still decode (blossom path)."""
        code = RepetitionCode(15)
        exp = build_memory_experiment(code, rounds=3)
        dec = decoder_for(exp, "mwpm", use_final_data=False)
        rng = np.random.default_rng(5)
        bits = np.zeros(dec.graph.num_nodes, dtype=np.uint8)
        hot = rng.choice(dec.graph.num_nodes, size=20, replace=False)
        bits[hot] = 1
        parity = dec.decode_detectors(bits)
        assert parity in (0, 1)


class TestUnionFindDetails:
    def test_single_defect_absorbs_to_boundary(self):
        g = DetectorGraph(RepetitionCode(5), rounds=2)
        dec = UnionFindDecoder(g, use_final_data=False)
        bits = np.zeros(g.num_nodes, dtype=np.uint8)
        bits[0] = 1
        assert dec.decode_detectors(bits) == 1

    def test_adjacent_pair(self):
        g = DetectorGraph(RepetitionCode(5), rounds=2)
        dec = UnionFindDecoder(g, use_final_data=False)
        bits = np.zeros(g.num_nodes, dtype=np.uint8)
        bits[0] = 1
        bits[1] = 1
        assert dec.decode_detectors(bits) == 1

    def test_accuracy_close_to_mwpm(self):
        exp = build_memory_experiment(RepetitionCode(7))
        mwpm = decoder_for(exp, "mwpm")
        uf = decoder_for(exp, "union-find")
        noise = NoiseModel([DepolarizingNoise(0.02)])
        rec = run_batch_noisy(exp.circuit, noise, 2000, rng=3)
        r_mwpm = mwpm.decode_batch(exp, rec)
        r_uf = uf.decode_batch(exp, rec)
        assert r_mwpm.logical_error_rate <= r_uf.logical_error_rate + 0.02


@pytest.mark.parametrize("kind", ["mwpm", "union-find"])
def test_decoder_name_is_its_kind(kind):
    """Reports key per-decoder figures on ``name`` (the e2e tracer's
    ``decoders.mwpm_s`` and ``decoders.uf_s``)."""
    exp = build_memory_experiment(RepetitionCode(3))
    assert decoder_for(exp, kind).name == kind


class TestReadoutModes:
    def test_ancilla_mode_blind_to_readout_fault(self):
        code = RepetitionCode(3)
        exp = build_memory_experiment(code)
        noise = NoiseModel([ErasureChannel([code.readout_qubit], 1.0)])
        rec = run_batch_noisy(exp.circuit, noise, 300, rng=5)
        blind = decoder_for(exp, use_final_data=False).decode_batch(exp, rec)
        aware = decoder_for(exp, use_final_data=True).decode_batch(exp, rec)
        assert blind.logical_error_rate > 0.8
        assert aware.logical_error_rate < 0.1

    def test_data_mode_requires_data_bits(self):
        exp = build_memory_experiment(RepetitionCode(3),
                                      include_data_measurement=False)
        dec = decoder_for(exp, use_final_data=True)
        # decoder_for silently falls back to ancilla mode.
        assert dec.use_final_data is False

    def test_unknown_decoder_kind(self):
        exp = build_memory_experiment(RepetitionCode(3))
        with pytest.raises(KeyError):
            decoder_for(exp, "tensor-network")

    def test_no_plaquette_code_decodes_raw(self):
        """xxzz-(1,3) has no Z checks: decoding in Z is a pass-through."""
        exp = build_memory_experiment(XXZZCode(1, 3))
        dec = decoder_for(exp, use_final_data=False)
        rec = BatchTableauSimulator(6, 32, rng=7).run(exp.circuit)
        res = dec.decode_batch(exp, rec)
        np.testing.assert_array_equal(res.decoded, exp.raw_readout(rec))


class TestHigherWeightErrors:
    def test_two_separated_errors_corrected_d5(self):
        """Distance 5 corrects 2 errors when they are well separated."""
        code = RepetitionCode(5)
        exp = build_memory_experiment(code)
        dec = decoder_for(exp)
        n0 = len(code.z_ancillas)
        circ = inject_after_round(exp, 0, n0)
        # Inject a second error on the far end.
        circ2 = Circuit(circ.num_qubits, circ.num_cbits)
        for g in circ:
            circ2.append(g)
            if g.tag == "inject":
                circ2.x(4, tag="inject2")
        rec = BatchTableauSimulator(circ2.num_qubits, 4, rng=1).run(circ2)
        res = dec.decode_batch(exp, rec)
        assert (res.decoded == 1).all()

    def test_beyond_distance_fails(self):
        """d=3 cannot correct 2 bit flips: decoded value must be wrong."""
        code = RepetitionCode(3)
        exp = build_memory_experiment(code)
        dec = decoder_for(exp)
        n0 = len(code.z_ancillas)
        circ = inject_after_round(exp, 0, n0)
        circ2 = Circuit(circ.num_qubits, circ.num_cbits)
        for g in circ:
            circ2.append(g)
            if g.tag == "inject":
                circ2.x(1, tag="inject2")
        rec = BatchTableauSimulator(circ2.num_qubits, 4, rng=1).run(circ2)
        res = dec.decode_batch(exp, rec)
        assert (res.decoded == 0).all()
