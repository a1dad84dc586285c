"""Cross-validation of the three simulators.

The single-shot tableau simulator is checked against the dense
statevector simulator (exact oracle); the batched simulator (the numpy
oracle of the native tableau, ``oracles.tableau``) is checked
against the single-shot one with forced measurement outcomes (exact
trajectory equality) and statistically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, GateType
from oracles.chp import TableauSimulator, run_shot
from oracles.circuits import random_clifford_circuit
from oracles.statevector import StatevectorSimulator
from oracles.tableau import BatchTableauSimulator


class TestTableauVsStatevector:
    @pytest.mark.parametrize("seed", range(8))
    def test_stabilizers_have_unit_expectation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        circuit = random_clifford_circuit(n, 40, rng=rng)
        ts = TableauSimulator(n, rng=1)
        ts.run(circuit)
        sv = StatevectorSimulator(n, rng=1)
        sv.run(circuit)
        for stab in ts.stabilizers():
            assert sv.expectation(stab) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_measurements_agree(self):
        c = Circuit(3).x(0).cx(0, 1).measure(0, 0).measure(1, 1).measure(2, 2)
        expected = {0: 1, 1: 1, 2: 0}
        assert TableauSimulator(3, rng=0).run(c) == expected
        assert StatevectorSimulator(3, rng=0).run(c) == expected

    def test_measurement_probability_agreement(self):
        # qubit in |+>: both simulators should measure ~50/50.
        c = Circuit(1).h(0).measure(0, 0)
        t_ones = sum(TableauSimulator(1, rng=s).run(c)[0] for s in range(400))
        s_ones = sum(StatevectorSimulator(1, rng=s).run(c)[0]
                     for s in range(400))
        assert abs(t_ones - 200) < 60
        assert abs(s_ones - 200) < 60

    def test_reset_in_both(self):
        c = Circuit(2).h(0).cx(0, 1).reset(0).measure(0, 0)
        for seed in range(10):
            assert TableauSimulator(2, rng=seed).run(c)[0] == 0
            assert StatevectorSimulator(2, rng=seed).run(c)[0] == 0


class TestBatchVsSingle:
    @pytest.mark.parametrize("seed,n,batch", [
        pytest.param(seed, 4, 1, id=str(seed)) for seed in range(10)
    ] + [
        # Row words: 33 -> one partly filled, 70 -> two, 130 -> three.
        pytest.param(seed, n, 3, id=f"n{n}-{seed}")
        for n in (33, 70, 130) for seed in (0, 1)
    ])
    def test_forced_trajectories_identical(self, seed, n, batch):
        """Every batch shot and its own single-shot reference agree gate
        by gate when random measurement outcomes are forced to match —
        with per-shot masks (``batch > 1``) the shots' trajectories
        diverge, and a masked-out shot must not move at all."""
        circuit = random_clifford_circuit(n, 15 * n, rng=seed,
                                          measure_prob=0.08, reset_prob=0.05)
        refs = [TableauSimulator(n, rng=0) for _ in range(batch)]
        bs = BatchTableauSimulator(n, batch, rng=seed * 13 + 1)
        mask_rng = np.random.default_rng(seed)
        for gate in circuit:
            mask = None
            if batch > 1 and mask_rng.random() < 0.7:
                mask = mask_rng.random(batch) < 0.5
            hit = np.ones(batch, bool) if mask is None else mask
            q = gate.qubits[0]
            if gate.gate_type in (GateType.MEASURE, GateType.RESET):
                out_b = bs.measure(q, mask)
                assert not out_b[~hit].any()
                if gate.gate_type is GateType.RESET:
                    bs.x_gate(q, out_b.astype(bool))
                for shot in np.nonzero(hit)[0]:
                    ts = refs[shot]
                    out_s = ts.tableau.measure(q, ts.rng,
                                               forced_outcome=out_b[shot])
                    assert out_s == out_b[shot]
                    if out_s and gate.gate_type is GateType.RESET:
                        ts.tableau.x_gate(q)
            else:
                bs.apply(gate, mask)
                for shot in np.nonzero(hit)[0]:
                    refs[shot].apply(gate)
            for shot, ts in enumerate(refs):
                single = ts.tableau
                got = bs.shot_tableau(shot)
                assert np.array_equal(single.x, got.x)
                assert np.array_equal(single.z, got.z)
                assert np.array_equal(single.r, got.r)

    def test_d7_noiseless_detectors_silent(self):
        """XXZZ (7,7) is 98 qubits — two row words per half: a
        noiseless memory run must fire no detector and read out the
        expected logical value."""
        from repro.codes import XXZZCode, build_memory_experiment
        from repro.decoders import (SyndromeBatch, decoder_for,
                                    prepare_packed_inputs)
        from repro.frames.packing import unpack_words

        exp = build_memory_experiment(XXZZCode(7, 7))
        batch = SyndromeBatch.from_records(
            BatchTableauSimulator(98, 8, rng=2).run(exp.circuit))
        graph = decoder_for(exp, "union-find").graph
        det, raw = prepare_packed_inputs(exp, batch.record_words, 8, graph,
                                         True)
        assert not unpack_words(det.reshape(-1, 1), 8).any()
        assert (unpack_words(raw, 8) == exp.expected_logical).all()

    def test_batch_marginals_match_reference(self):
        circuit = random_clifford_circuit(4, 60, rng=12,
                                          measure_prob=0.08, reset_prob=0.05)
        rec = BatchTableauSimulator(4, 3000, rng=7).run(circuit)
        got = rec.mean(axis=0)
        ref = np.zeros(circuit.num_cbits)
        for s in range(600):
            r = TableauSimulator(4, rng=900 + s).run(circuit)
            for k, v in r.items():
                ref[k] += v
        ref /= 600
        assert np.all(np.abs(got - ref) < 0.08)

    def test_batch_invariants_after_run(self):
        circuit = random_clifford_circuit(5, 80, rng=3, measure_prob=0.1,
                                          reset_prob=0.05)
        bs = BatchTableauSimulator(5, 64, rng=5)
        bs.run(circuit)
        for shot in range(0, 64, 7):
            assert bs.shot_tableau(shot).is_valid()


class TestBatchMaskedOps:
    def test_masked_x(self):
        bs = BatchTableauSimulator(1, 10, rng=0)
        mask = np.zeros(10, dtype=bool)
        mask[:5] = True
        bs.x_gate(0, mask)
        assert list(bs.measure(0)) == [1] * 5 + [0] * 5

    def test_masked_h_collapse_split(self):
        bs = BatchTableauSimulator(1, 2000, rng=1)
        mask = np.zeros(2000, dtype=bool)
        mask[:1000] = True
        bs.h(0, mask)
        out = bs.measure(0)
        assert out[1000:].sum() == 0          # untouched shots stay |0>
        assert 380 < out[:1000].sum() < 620   # masked shots random

    def test_masked_measure_leaves_rest_untouched(self):
        bs = BatchTableauSimulator(1, 4, rng=2)
        bs.h(0)
        mask = np.array([True, False, True, False])
        bs.measure(0, mask)
        # Unmasked shots must still be in superposition: their stabilizer
        # contains an X component.
        for shot in (1, 3):
            t = bs.shot_tableau(shot)
            assert t.x[1:, 0].any()

    def test_masked_reset(self):
        bs = BatchTableauSimulator(1, 6, rng=3)
        bs.x_gate(0)
        mask = np.array([True, True, False, False, True, False])
        bs.reset(0, mask)
        np.testing.assert_array_equal(bs.measure(0),
                                      [0, 0, 1, 1, 0, 1])

    def test_masked_two_qubit(self):
        bs = BatchTableauSimulator(2, 4, rng=4)
        bs.x_gate(0)
        mask = np.array([True, False, True, False])
        bs.cx(0, 1, mask)
        np.testing.assert_array_equal(bs.measure(1), [1, 0, 1, 0])

    def test_masked_swap(self):
        bs = BatchTableauSimulator(2, 4, rng=5)
        bs.x_gate(0)
        mask = np.array([True, False, False, True])
        bs.swap(0, 1, mask)
        np.testing.assert_array_equal(bs.measure(0), [0, 1, 1, 0])
        np.testing.assert_array_equal(bs.measure(1), [1, 0, 0, 1])


class TestRunShot:
    def test_run_shot_convenience(self):
        c = Circuit(1).x(0).measure(0, 0)
        assert run_shot(c, seed=0) == {0: 1}

    def test_wider_simulator_than_circuit_rejected_inverse(self):
        c = Circuit(5).x(4)
        with pytest.raises(ValueError):
            TableauSimulator(3).run(c)

    def test_batch_size_one_minimum(self):
        with pytest.raises(ValueError):
            BatchTableauSimulator(1, 0)


class TestStatevectorDetails:
    def test_prob_one(self):
        sv = StatevectorSimulator(1)
        sv.run(Circuit(1).h(0))
        assert sv.prob_one(0) == pytest.approx(0.5)

    def test_forced_zero_probability_rejected(self):
        sv = StatevectorSimulator(1)
        with pytest.raises(ValueError):
            sv.measure(0, forced_outcome=1)

    def test_qubit_limit(self):
        with pytest.raises(ValueError):
            StatevectorSimulator(30)

    def test_probabilities_normalised(self):
        sv = StatevectorSimulator(3, rng=0)
        sv.run(random_clifford_circuit(3, 30, rng=1))
        assert sv.probabilities().sum() == pytest.approx(1.0)


class TestPropertySimulators:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_ghz_parity_always_even(self, seed):
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        c.measure(0, 0).measure(1, 1).measure(2, 2)
        rec = run_shot(c, seed=seed)
        assert rec[0] == rec[1] == rec[2]
