"""End-to-end integration tests across the whole stack.

These follow the paper's §IV-C protocol exactly: build a code, build the
memory experiment, transpile to an architecture, attach the intrinsic
noise and a radiation event, simulate a batch, decode with MWPM, and
check the physics (thresholds, orderings) rather than single-module
behaviour.
"""

import dataclasses

import numpy as np
import pytest

from repro.arch import linear, mesh
from repro.codes import RepetitionCode, XXZZCode, build_memory_experiment
from repro.decoders import decoder_for
from repro.injection import (
    ArchSpec,
    Campaign,
    CodeSpec,
    FaultSpec,
    InjectionTask,
)
from repro.noise import (
    DepolarizingNoise,
    NoiseModel,
    RadiationEvent,
    run_batch_noisy,
)
from repro.transpile import transpile


def transpiled_experiment(code, arch):
    exp = build_memory_experiment(code)
    routed = transpile(exp.circuit, arch, layout="best")
    return dataclasses.replace(exp, circuit=routed.circuit), routed


@pytest.mark.integration
@pytest.mark.slow
class TestPaperProtocol:
    def test_low_noise_low_error(self):
        """Below ~1e-3, the decoded LER must be far below 1% (the
        paper's 'no output errors' regime)."""
        exp, _ = transpiled_experiment(RepetitionCode(5), mesh(2, 5))
        dec = decoder_for(exp)
        noise = NoiseModel([DepolarizingNoise(1e-4)])
        rec = run_batch_noisy(exp.circuit, noise, 3000, rng=1)
        assert dec.decode_batch(exp, rec).logical_error_rate < 0.01

    def test_ler_monotone_in_p(self):
        exp, _ = transpiled_experiment(XXZZCode(3, 3), mesh(3, 6))
        dec = decoder_for(exp)
        rates = []
        for p in (1e-4, 1e-2, 1e-1):
            rec = run_batch_noisy(exp.circuit,
                                  NoiseModel([DepolarizingNoise(p)]),
                                  1200, rng=7)
            rates.append(dec.decode_batch(exp, rec).logical_error_rate)
        assert rates[0] < rates[1] < rates[2]

    def test_radiation_strike_dominates_low_noise(self):
        """Observation I end-to-end: a strike at t=0 devastates even a
        noiseless device."""
        arch = mesh(3, 6)
        exp, _ = transpiled_experiment(XXZZCode(3, 3), arch)
        dec = decoder_for(exp)
        event = RadiationEvent(2, arch.distances_from(2), arch.num_qubits)
        noise = NoiseModel([event.channel(0)])
        rec = run_batch_noisy(exp.circuit, noise, 800, rng=3)
        assert dec.decode_batch(exp, rec).logical_error_rate > 0.2

    def test_radiation_fades_with_time(self):
        arch = mesh(2, 5)
        exp, _ = transpiled_experiment(RepetitionCode(5), arch)
        dec = decoder_for(exp)
        event = RadiationEvent(2, arch.distances_from(2), arch.num_qubits)
        rates = []
        for k in (0, 9):
            noise = NoiseModel([event.channel(k), DepolarizingNoise(0.01)])
            rec = run_batch_noisy(exp.circuit, noise, 1200, rng=4)
            rates.append(dec.decode_batch(exp, rec).logical_error_rate)
        assert rates[0] > rates[1] + 0.05

    def test_spread_worse_than_confined(self):
        """Observations V/VI: the same strike hurts more when it spreads."""
        arch = mesh(3, 6)
        exp, _ = transpiled_experiment(XXZZCode(3, 3), arch)
        dec = decoder_for(exp)
        rates = {}
        for spread in (True, False):
            event = RadiationEvent(8, arch.distances_from(8),
                                   arch.num_qubits, spread=spread)
            noise = NoiseModel([event.channel(0), DepolarizingNoise(0.01)])
            rec = run_batch_noisy(exp.circuit, noise, 1200, rng=5)
            rates[spread] = dec.decode_batch(exp, rec).logical_error_rate
        assert rates[True] > rates[False]

    def test_bitflip_beats_phaseflip_protection(self):
        """Observation IV end-to-end at equal qubit count."""
        rates = {}
        for dz, dx in [(3, 1), (1, 3)]:
            code = XXZZCode(dz, dx)
            arch = mesh(2, 3)
            exp, _ = transpiled_experiment(code, arch)
            dec = decoder_for(exp)
            event = RadiationEvent(1, arch.distances_from(1),
                                   arch.num_qubits, spread=False)
            noise = NoiseModel([event.channel(0), DepolarizingNoise(0.01)])
            rec = run_batch_noisy(exp.circuit, noise, 1500, rng=6)
            rates[(dz, dx)] = dec.decode_batch(exp, rec).logical_error_rate
        assert rates[(3, 1)] < rates[(1, 3)]


@pytest.mark.integration
@pytest.mark.slow
class TestCampaignIntegration:
    def test_mini_campaign_round_trip(self):
        tasks = [
            InjectionTask(
                code=CodeSpec("repetition", (3, 1)),
                arch=ArchSpec("mesh", (2, 3)),
                fault=FaultSpec(kind="radiation", root_qubit=r,
                                time_index=0),
                intrinsic_p=0.01, shots=150,
            ).with_tags(root=r)
            for r in range(3)
        ]
        results = Campaign(tasks, root_seed=5).run(workers=2)
        assert len(results) == 3
        rows = results.to_rows()
        assert all("ler" in row for row in rows)
        # Re-running must reproduce counts exactly.
        again = Campaign(tasks, root_seed=5).run(workers=1)
        assert [r.errors for r in results] == [r.errors for r in again]

    def test_decoder_comparison_consistency(self):
        """MWPM should not lose to union-find by more than noise."""
        common = dict(code=CodeSpec("xxzz", (3, 3)),
                      arch=ArchSpec("mesh", (3, 6)),
                      fault=FaultSpec(kind="radiation", root_qubit=4,
                                      time_index=2),
                      intrinsic_p=0.01, shots=800, seed=123)
        mwpm = Campaign([InjectionTask(decoder="mwpm", **common)]).run(
            workers=1)[0]
        uf = Campaign([InjectionTask(decoder="union-find", **common)]).run(
            workers=1)[0]
        assert mwpm.logical_error_rate <= uf.logical_error_rate + 0.05


@pytest.mark.integration
class TestDualBasisMemory:
    def test_phase_flip_code_protects_x_memory(self):
        """The dual experiment: X-basis memory with XX checks corrects
        phase-flip (Z) noise."""
        code = RepetitionCode(5, basis="X")
        exp = build_memory_experiment(code, basis="X")
        dec = decoder_for(exp, basis="X")
        # Pure Z noise: dephasing only.
        from repro.logical import LogicalFaultChannel

        z_only = LogicalFaultChannel(
            {}, phase_rates=[0.01] * exp.circuit.num_qubits)
        rec = run_batch_noisy(exp.circuit, NoiseModel([z_only]), 1500,
                              rng=8)
        res = dec.decode_batch(exp, rec)
        raw_err = np.mean(exp.raw_readout(rec) != 1)
        assert res.logical_error_rate < raw_err + 1e-9
        assert res.logical_error_rate < 0.1
