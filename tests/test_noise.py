"""Tests for the noise models (paper Eqs. 4-7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mesh
from repro.circuits import Circuit, Gate, GateType
from repro.noise import (
    DepolarizingNoise,
    ErasureChannel,
    NoiseModel,
    RadiationChannel,
    RadiationEvent,
    run_batch_noisy,
    sample_times,
    spatial_damping,
    stepped_temporal_decay,
    temporal_decay,
)


def sites(channel, gate, num_qubits=9):
    """The columns of ``channel``'s sites after ``gate``."""
    return channel.site_table(num_qubits).sites_after(gate)[1]


class TestDecayFunctions:
    def test_temporal_decay_at_strike(self):
        assert temporal_decay(0.0) == pytest.approx(1.0)

    def test_temporal_decay_gamma(self):
        assert temporal_decay(1.0) == pytest.approx(np.exp(-10.0))
        assert temporal_decay(0.5, gamma=2.0) == pytest.approx(np.exp(-1.0))

    def test_sample_times_span_window(self):
        ts = sample_times(10)
        assert ts[0] == 0.0
        assert ts[-1] == 1.0
        assert len(ts) == 10
        np.testing.assert_allclose(np.diff(ts), np.diff(ts)[0])

    def test_sample_times_single(self):
        assert sample_times(1).tolist() == [0.0]

    def test_sample_times_rejects_zero(self):
        with pytest.raises(ValueError):
            sample_times(0)

    def test_stepped_decay_is_piecewise_constant(self):
        # Steps change at k/9 for n_s = 10; points within a step match.
        t = np.array([0.0, 0.05, 0.12, 0.20])
        stepped = stepped_temporal_decay(t, num_samples=10)
        assert stepped[0] == stepped[1]          # both in step 0
        assert stepped[2] == stepped[3]          # both in step 1
        assert stepped[0] > stepped[2]

    def test_stepped_decay_upper_bounds_continuous(self):
        t = np.linspace(0, 1, 500)
        assert np.all(stepped_temporal_decay(t) >= temporal_decay(t) - 1e-12)

    def test_spatial_damping_eq6(self):
        assert spatial_damping(0) == pytest.approx(1.0)
        assert spatial_damping(1) == pytest.approx(0.25)
        assert spatial_damping(3) == pytest.approx(1.0 / 16.0)

    def test_spatial_damping_custom_n(self):
        assert spatial_damping(2, n=2.0) == pytest.approx(4.0 / 16.0)


class TestDepolarizingNoise:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            DepolarizingNoise(1.5)

    def test_zero_probability_never_triggers(self):
        ch = DepolarizingNoise(0.0)
        assert not sites(ch, Gate(GateType.H, (0,)))

    def test_triggers_on_unitaries_only_by_default(self):
        ch = DepolarizingNoise(0.1)
        assert sites(ch, Gate(GateType.CX, (0, 1)))
        assert not sites(ch, Gate(GateType.MEASURE, (0,), cbit=0))
        assert not sites(ch, Gate(GateType.RESET, (0,)))

    def test_measurement_inclusion_flag(self):
        ch = DepolarizingNoise(0.1, include_measurements=True)
        assert sites(ch, Gate(GateType.MEASURE, (0,), cbit=0))

    def test_qubit_restriction(self):
        ch = DepolarizingNoise(0.1, qubits=[2])
        assert not sites(ch, Gate(GateType.H, (0,)))
        assert sites(ch, Gate(GateType.H, (2,)))

    def test_error_rate_statistics(self):
        """A single gate at p produces a bit-flip with prob ~2p/3
        (X and Y components flip the Z-basis outcome)."""
        p = 0.3
        circ = Circuit(1).x(0)  # X then noise then measure
        circ.measure(0, 0)
        rec = run_batch_noisy(circ, NoiseModel([DepolarizingNoise(p)]),
                              20_000, rng=5)
        flips = np.mean(rec[:, 0] == 0)
        assert flips == pytest.approx(2 * p / 3, abs=0.02)


class TestErasureChannel:
    def test_requires_qubits(self):
        with pytest.raises(ValueError):
            ErasureChannel([])

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ErasureChannel([0], probability=-0.1)

    def test_full_probability_pins_qubit(self):
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([ErasureChannel([0], 1.0)])
        rec = run_batch_noisy(circ, noise, 50, rng=1)
        assert (rec[:, 0] == 0).all()

    def test_partial_probability(self):
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([ErasureChannel([0], 0.25)])
        rec = run_batch_noisy(circ, noise, 8000, rng=2)
        assert np.mean(rec[:, 0] == 0) == pytest.approx(0.25, abs=0.02)

    def test_untargeted_qubits_untouched(self):
        circ = Circuit(2).x(0).x(1).measure(0, 0).measure(1, 1)
        noise = NoiseModel([ErasureChannel([0], 1.0)])
        rec = run_batch_noisy(circ, noise, 50, rng=3)
        assert (rec[:, 1] == 1).all()


class TestErasureBatchSemantics:
    """Masked-batch behaviour of the erasure channel: a partial-
    probability erasure must reset exactly the sampled shots, leave the
    rest untouched, and act like a true per-shot reset on entangled
    states."""

    def test_masked_shots_leave_companions_untouched(self):
        """p=0.5 erasure on qubit 0: qubit 1 stays |1> in every shot,
        and qubit 0 is reset in the erased shots only."""
        circ = Circuit(2).x(0).x(1).measure(0, 0).measure(1, 1)
        noise = NoiseModel([ErasureChannel([0], 0.5)])
        rec = run_batch_noisy(circ, noise, 6000, rng=9, backend="tableau")
        assert (rec[:, 1] == 1).all()
        frac = np.mean(rec[:, 0] == 0)
        # One site (the X gate) precedes the measurement; the firing
        # after the measure itself is too late to touch the record.
        assert frac == pytest.approx(0.5, abs=0.03)

    def test_erasure_decorrelates_bell_pair(self):
        """Erasing one half of a Bell pair yields uncorrelated Z
        outcomes: the erased qubit pins to |0>, the partner stays
        maximally mixed."""
        circ = Circuit(2).h(0).cx(0, 1)
        circ.append(Gate(GateType.BARRIER, (0, 1)))
        # erasure site on qubit 1, after entanglement
        circ.append(Gate(GateType.I, (1,)))
        circ.measure(0, 0).measure(1, 1)
        noise = NoiseModel([ErasureChannel([1], 1.0)])
        rec = run_batch_noisy(circ, noise, 8000, rng=10, backend="tableau")
        assert (rec[:, 1] == 0).all()           # reset just before measure
        assert np.mean(rec[:, 0]) == pytest.approx(0.5, abs=0.02)

    def test_batch_statistics(self):
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([ErasureChannel([0], 0.3)])
        batch = run_batch_noisy(circ, noise, 4000, rng=11,
                                backend="tableau")
        assert np.mean(batch[:, 0] == 0) == pytest.approx(0.3, abs=0.03)


class TestRadiationEvent:
    def make_event(self, **kw):
        arch = mesh(3, 3)
        defaults = dict(root_qubit=4, distances=arch.distances_from(4),
                        num_qubits=9)
        defaults.update(kw)
        return RadiationEvent(**defaults)

    def test_root_probability_decays(self):
        ev = self.make_event()
        probs = [ev.root_probability(k) for k in range(10)]
        assert probs[0] == pytest.approx(1.0)
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_spatial_profile_at_strike(self):
        ev = self.make_event()
        p = ev.qubit_probabilities(0)
        assert p[4] == pytest.approx(1.0)          # root
        assert p[1] == pytest.approx(0.25)          # distance 1
        assert p[0] == pytest.approx(1.0 / 9.0)     # distance 2

    def test_qubit_probabilities_are_decay_product(self):
        # Eq. 7: each qubit's probability is T(t_k) * S(d_q).
        ev = self.make_event()
        for k in (0, 3, 9):
            expected = [temporal_decay(ev.times[k]) * spatial_damping(d)
                        for d in ev.distances]
            np.testing.assert_allclose(ev.qubit_probabilities(k), expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 9), st.booleans())
    def test_qubit_probabilities_are_probabilities(self, root, k, spread):
        p = self.make_event(root_qubit=root,
                            distances=mesh(3, 3).distances_from(root),
                            spread=spread).qubit_probabilities(k)
        assert p.shape == (9,)
        assert ((0.0 <= p) & (p <= 1.0)).all()
        assert p[root] == p.max()

    def test_no_spread_confines_to_root(self):
        ev = self.make_event(spread=False)
        p = ev.qubit_probabilities(0)
        assert p[4] == pytest.approx(1.0)
        assert p.sum() == pytest.approx(1.0)

    def test_unreachable_qubits_zero(self):
        ev = RadiationEvent(0, {0: 0.0, 1: 1.0}, num_qubits=3)
        p = ev.qubit_probabilities(0)
        assert p[2] == 0.0

    def test_distance_outside_register_rejected(self):
        with pytest.raises(ValueError):
            RadiationEvent(0, {5: 1.0}, num_qubits=3)

    def test_channel_factory(self):
        ev = self.make_event()
        ch = ev.channel(0)
        assert isinstance(ch, RadiationChannel)
        assert sites(ch, Gate(GateType.H, (4,)))

    def test_event_times_match_sampling(self):
        ev = self.make_event(num_samples=5)
        assert len(ev.times) == 5

    def test_custom_gamma_probability_vectors(self):
        """Eq. 7 at non-default gamma: the root decays as exp(-gamma t)
        and every neighbour keeps the same S(d) scaling at all samples."""
        ev = self.make_event(gamma=2.0, num_samples=5)
        ts = np.linspace(0.0, 1.0, 5)
        for k, t in enumerate(ts):
            p = ev.qubit_probabilities(k)
            assert ev.root_probability(k) == pytest.approx(np.exp(-2.0 * t))
            assert p[4] == pytest.approx(np.exp(-2.0 * t))
            assert p[1] == pytest.approx(np.exp(-2.0 * t) * 0.25)
        # Slower decay than the paper default at every interior sample.
        default = self.make_event(num_samples=5)
        for k in range(1, 5):
            assert ev.root_probability(k) > default.root_probability(k)

    def test_custom_spatial_n_profile(self):
        """Eq. 6 at n=2: S(d) = 4 / (d + 2)^2."""
        ev = self.make_event(n=2.0)
        p = ev.qubit_probabilities(0)
        assert p[4] == pytest.approx(1.0)               # root, d = 0
        assert p[1] == pytest.approx(4.0 / 9.0)         # d = 1
        assert p[0] == pytest.approx(4.0 / 16.0)        # d = 2

    def test_coarse_sampling_still_spans_window(self):
        """n_s=3 keeps the strike instant and the window end, with the
        midpoint at exp(-gamma/2)."""
        ev = self.make_event(num_samples=3)
        probs = [ev.root_probability(k) for k in range(3)]
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(np.exp(-5.0))
        assert probs[2] == pytest.approx(np.exp(-10.0))

    def test_fault_spec_rejects_time_index_beyond_custom_ns(self):
        from repro.injection import FaultSpec

        with pytest.raises(ValueError):
            FaultSpec(kind="radiation", time_index=3, num_samples=3)
        FaultSpec(kind="radiation", time_index=2, num_samples=3)  # ok

    def test_custom_parameters_thread_through_task(self):
        """A campaign task carrying non-default gamma / n_s samples a
        *milder* late-time fault than the paper default."""
        from repro.injection import CodeSpec, FaultSpec, InjectionTask, run_task

        common = dict(code=CodeSpec("repetition", (3, 1)),
                      intrinsic_p=0.0, shots=400)
        mild = run_task(InjectionTask(
            fault=FaultSpec(kind="radiation", root_qubit=1, time_index=4,
                            num_samples=5, gamma=20.0), seed=31, **common))
        harsh = run_task(InjectionTask(
            fault=FaultSpec(kind="radiation", root_qubit=1, time_index=0,
                            num_samples=5, gamma=20.0), seed=31, **common))
        assert mild.errors <= harsh.errors


class TestRadiationChannel:
    def test_rejects_bad_probability_vector(self):
        with pytest.raises(ValueError):
            RadiationChannel([0.5, 1.5])

    def test_triggers_only_on_hot_qubits(self):
        ch = RadiationChannel([0.0, 1.0])
        assert not sites(ch, Gate(GateType.H, (0,)))
        assert sites(ch, Gate(GateType.H, (1,)))
        assert sites(ch, Gate(GateType.CX, (0, 1)))

    def test_triggers_on_measure_and_reset(self):
        """Radiation is a physical process: it also follows non-unitary
        circuit operations."""
        ch = RadiationChannel([1.0])
        assert sites(ch, Gate(GateType.MEASURE, (0,), cbit=0))
        assert sites(ch, Gate(GateType.RESET, (0,)))

    def test_full_intensity_resets_state(self):
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([RadiationChannel([1.0])])
        rec = run_batch_noisy(circ, noise, 40, rng=4)
        assert (rec[:, 0] == 0).all()


class TestNoiseModel:
    def test_channels_keep_order(self):
        channels = [DepolarizingNoise(0.1), ErasureChannel([0])]
        m = NoiseModel(channels)
        assert len(m) == 2
        assert list(m) == channels
        assert len(NoiseModel()) == 0

    def test_begin_run_rewinds_every_channel(self):
        ev = TestRadiationEvent().make_event()
        bursts = [ev.burst(0, measures_per_round=1),
                  ev.burst(1, measures_per_round=1)]
        m = NoiseModel(bursts)
        for burst in bursts:
            burst.observe(Gate(GateType.MEASURE, (0,), cbit=0))
            assert burst.current_round == 1
        m.begin_run()
        assert [b.current_round for b in bursts] == [0, 0]

    def test_none_noise_allowed_in_executor(self):
        circ = Circuit(1).x(0).measure(0, 0)
        rec = run_batch_noisy(circ, None, 10, rng=0)
        assert (rec[:, 0] == 1).all()
