"""Tests for the post-QEC logical-layer fault injection (paper §VI)."""

import numpy as np
import pytest

from repro import obs
from repro.circuits import Circuit, Gate, GateType
from repro.codes import XXZZCode, build_memory_experiment
from repro.logical import (
    LogicalFaultChannel,
    criticality_ranking,
    logical_fault_injection,
    output_distribution,
    total_variation,
)
from repro.noise import NoiseModel, run_batch_noisy


def ghz(n=3):
    c = Circuit(n)
    c.h(0)
    for i in range(n - 1):
        c.cx(i, i + 1)
    for i in range(n):
        c.measure(i, i)
    return c


class TestChannel:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            LogicalFaultChannel({0: 1.5})

    def test_accepts_sequence(self):
        ch = LogicalFaultChannel([0.1, 0.0, 0.2])
        assert ch.rates == {0: 0.1, 1: 0.0, 2: 0.2}

    def test_sites_only_on_hot_qubits(self):
        """A flip table's columns: ``2q`` an X flip on ``q``, ``2q + 1``
        a Z flip."""
        table = LogicalFaultChannel({1: 0.5}).site_table(2)
        assert table.sites_after(Gate(GateType.H, (0,))) == (0, [])
        assert table.sites_after(Gate(GateType.CX, (0, 1))) == (0, [2])

    def test_zero_rates_have_no_sites(self):
        table = LogicalFaultChannel({0: 0.0}).site_table(1)
        assert table.sites_after(Gate(GateType.H, (0,))) == (0, [])

    def test_sites_per_qubit_x_then_z(self):
        table = LogicalFaultChannel(
            {0: 0.1, 5: 0.4}, phase_rates={0: 0.2, 1: 0.3}).site_table(2)
        assert table.table.tolist() == [[0.1, 0.2, 0.0, 0.3]]
        assert table.sites_after(Gate(GateType.CX, (0, 1))) == (0, [0, 1, 3])
        assert table.sites_after(Gate(GateType.CX, (1, 0))) == (0, [3, 0, 1])
        assert table.sites_after(Gate(GateType.BARRIER, (0, 1))) == (0, [])

    def test_negative_qubits_are_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LogicalFaultChannel({}, phase_rates={-1: 0.1})

    def test_flip_statistics(self):
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([LogicalFaultChannel({0: 0.3})])
        rec = run_batch_noisy(circ, noise, 10_000, rng=1)
        assert np.mean(rec[:, 0] == 0) == pytest.approx(0.3, abs=0.02)

    def test_phase_rates_affect_plus_state(self):
        circ = Circuit(1).h(0).h(0).measure(0, 0)
        # Z error between the Hadamards flips the outcome.
        noise = NoiseModel([LogicalFaultChannel({}, phase_rates={0: 1.0})])
        rec = run_batch_noisy(circ, noise, 200, rng=2)
        assert (rec[:, 0] == 1).all()


class TestBackendsAgree:
    """The channel is a flip site table, so ``auto`` runs it on frames;
    the frames and the tableau backends sample one distribution."""

    @pytest.mark.parametrize("name", ["ghz3", "xxzz33"])
    def test_record_marginals_chi_square(self, name):
        chi2_contingency = pytest.importorskip("scipy.stats").chi2_contingency
        if name == "ghz3":
            circuit = ghz(3)
        else:
            circuit = build_memory_experiment(XXZZCode(3, 3)).circuit
        n = circuit.num_qubits
        noise = NoiseModel([LogicalFaultChannel(
            {q: 0.05 + 0.01 * (q % 3) for q in range(n)},
            phase_rates={q: 0.03 for q in range(0, n, 2)})])
        native = obs.counter("stabilizer.native_blocks")
        before = native.value
        frames = run_batch_noisy(circuit, noise, 6000, rng=11)
        assert native.value == before       # auto took frames
        tableau = run_batch_noisy(circuit, noise, 6000, rng=12,
                                  backend="tableau")
        assert native.value == before + 1
        for cbit in range(frames.shape[1]):
            ones = [frames[:, cbit].sum(), tableau[:, cbit].sum()]
            if not any(ones) or min(ones) == 6000:
                continue    # constant on both: nothing to compare
            table = [[ones[0], 6000 - ones[0]], [ones[1], 6000 - ones[1]]]
            assert chi2_contingency(table).pvalue > 1e-3, (name, cbit)


class TestDistributions:
    def test_output_distribution_normalised(self):
        rec = np.array([[0, 0], [0, 1], [0, 1], [1, 1]], dtype=np.uint8)
        dist = output_distribution(rec)
        assert dist == {"00": 0.25, "01": 0.5, "11": 0.25}

    def test_total_variation_bounds(self):
        p = {"0": 1.0}
        q = {"1": 1.0}
        assert total_variation(p, q) == 1.0
        assert total_variation(p, p) == 0.0

    def test_total_variation_partial(self):
        p = {"0": 0.5, "1": 0.5}
        q = {"0": 1.0}
        assert total_variation(p, q) == pytest.approx(0.5)


class TestInjection:
    def test_zero_rates_zero_distance(self):
        impact = logical_fault_injection(ghz(), {0: 0.0}, shots=800, rng=4)
        # Same sampler statistics: distance stays at sampling-noise level.
        assert impact.tv_distance < 0.08

    def test_struck_qubit_shifts_output(self):
        impact = logical_fault_injection(ghz(), {1: 0.5}, shots=3000, rng=5)
        assert impact.tv_distance > 0.2
        # GHZ ideal support is 000/111 only; faults leak elsewhere.
        leaked = sum(v for k, v in impact.faulty.items()
                     if k[:3] not in ("000", "111"))
        assert leaked > 0.1

    def test_top_outcomes(self):
        impact = logical_fault_injection(ghz(), {0: 0.2}, shots=1500, rng=6)
        top = impact.top_outcomes(2)
        assert len(top) == 2
        assert all(len(t) == 3 for t in top)

    def test_criticality_ranking_orders_by_damage(self):
        rows = criticality_ranking(ghz(), base_rate=0.001, struck_rate=0.4,
                                   shots=1500, rng=7)
        assert len(rows) == 3
        assert rows[0]["tv_distance"] >= rows[-1]["tv_distance"]
        # Every strike does measurable damage in a GHZ circuit.
        assert all(r["tv_distance"] > 0.1 for r in rows)
