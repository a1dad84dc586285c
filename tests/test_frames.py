"""Tests for the bit-packed Pauli-frame backend (``repro.frames``).

Three layers:

* packing / simulator mechanics,
* exactness against the tableau backends — bit-for-bit on deterministic
  reference circuits, in distribution elsewhere,
* cross-validation at campaign level: seeded frame-backend campaigns on
  the d=3 and d=5 rotated codes must reproduce the tableau backend's
  logical error rates within overlapping 95% Wilson intervals.
"""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, Gate, GateType
from repro.codes import RepetitionCode, XXZZCode, build_memory_experiment
from repro.decoders import decoder_for
from repro.frames import program as frames_program
from repro.frames import (
    FrameSimulator,
    compile_frame_program,
    frame_structure,
    pack_bool,
    random_words,
    unpack_words,
    words_for,
)
from repro import obs
from repro.injection import (
    SIM_BLOCK,
    ArchSpec,
    Campaign,
    CampaignStore,
    CodeSpec,
    FaultSpec,
    InjectionTask,
    build_sweep,
    iter_task_chunks,
    run_task,
    task_key,
)
from repro.injection.campaign import (
    _build_noise,
    _frame_program,
    _prepared,
    _structure_cell,
    _task_context,
)
from repro.injection.results import wilson_interval
from repro.logical import LogicalFaultChannel
from repro.noise import (
    DepolarizingNoise,
    ErasureChannel,
    NoiseModel,
    RadiationChannel,
    RadiationEvent,
    run_batch_noisy,
)
from repro.noise.base import NoiseChannel
from repro.rare.sampler import SamplerSpec
from repro.util.rng import frame_ref_seed

import test_tableau_stream as tableau_stream
from oracles import frames as oracle
from oracles.circuits import random_clifford_circuit
from oracles.tableau import BatchTableauSimulator, numpy_walk
from oracles.results import counts
from oracles.frames import bernoulli_words


def wilson_overlap(a_errors, a_shots, b_errors, b_shots) -> bool:
    """Do two 95% Wilson intervals overlap?"""
    alo, ahi = wilson_interval(a_errors, a_shots)
    blo, bhi = wilson_interval(b_errors, b_shots)
    return alo <= bhi and blo <= ahi


def blocks_run():
    """Lanes run so far (``frames.blocks``)."""
    return obs.counter("frames.blocks").value


class TestPacking:
    @pytest.mark.parametrize("B", [1, 7, 63, 64, 65, 200, 512])
    def test_roundtrip(self, B):
        rng = np.random.default_rng(B)
        bits = rng.integers(0, 2, size=B).astype(bool)
        words = pack_bool(bits)
        assert words.shape == (words_for(B),)
        assert np.array_equal(unpack_words(words, B), bits.astype(np.uint8))

    def test_packed_tail_is_zero(self):
        words = pack_bool(np.ones(70, dtype=bool))
        # Word 1 holds shots 64..69; bits 6..63 must be clear.
        assert int(words[1]) == (1 << 6) - 1

    def test_bernoulli_edge_probabilities(self):
        rng = np.random.default_rng(0)
        full = bernoulli_words(rng, 1.0, 70)
        assert int(full[0]) == (1 << 64) - 1
        assert int(full[1]) == (1 << 6) - 1      # no don't-care bits
        assert not bernoulli_words(rng, 0.0, 70).any()

    def test_bernoulli_statistics(self):
        rng = np.random.default_rng(1)
        mask = bernoulli_words(rng, 0.3, 20_000)
        assert unpack_words(mask, 20_000).mean() == pytest.approx(0.3,
                                                                  abs=0.02)

    def test_random_words_length_and_determinism(self):
        a = random_words(np.random.default_rng(5), 4)
        b = random_words(np.random.default_rng(5), 4)
        assert a.shape == (4,)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.Philox, np.random.SFC64])
    def test_random_words_continue_the_bytes_stream(self, bit_generator):
        """The stream contract: on a 64-bit-native bit generator the
        raw words are the words ``rng.bytes`` would have produced, and
        the generator goes on identically — also with block uniform
        draws in between, as a frame program interleaves them."""
        raw = np.random.Generator(bit_generator(11))
        ref = np.random.Generator(bit_generator(11))
        for nwords, (k, B) in zip((1, 3, 8, 17, 480),
                                  ((1, 64), (7, 100), (3, 512), (1, 1),
                                   (5, 200))):
            words = random_words(raw, nwords)
            assert words.dtype == np.uint64 and words.flags.writeable
            assert np.array_equal(words, np.frombuffer(
                ref.bytes(8 * nwords), dtype=np.uint64))
            assert np.array_equal(raw.random((k, B)), ref.random((k, B)))
        assert str(raw.bit_generator.state["state"]) \
            == str(ref.bit_generator.state["state"])
        assert raw.integers(0, 2, size=9, dtype=np.uint8).tolist() \
            == ref.integers(0, 2, size=9, dtype=np.uint8).tolist()

    def test_random_words_on_a_32_bit_generator_fill_the_word(self):
        """MT19937's raw output is 32 bits wide: it keeps the bytes
        route, so the upper half of every word is still sampled."""
        rng = np.random.Generator(np.random.MT19937(5))
        ref = np.random.Generator(np.random.MT19937(5))
        words = random_words(rng, 64)
        assert np.array_equal(words, np.frombuffer(ref.bytes(8 * 64),
                                                   dtype=np.uint64))
        assert (words >> np.uint64(32)).any()

    def test_rows_roundtrip_2d(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=(3, 130)).astype(np.uint8)
        words = np.stack([pack_bool(row) for row in bits])
        assert np.array_equal(unpack_words(words, 130), bits)


class TestNoiselessExactness:
    def test_repetition_memory_bit_exact(self):
        """Fully deterministic reference: the frame record equals both
        the reference sample and the batch-tableau record bit-for-bit."""
        exp = build_memory_experiment(RepetitionCode(5))
        program = compile_frame_program(exp.circuit, None, rng=1)
        assert not program.random_cbits
        rec_frames = run_batch_noisy(exp.circuit, None, 300, rng=2,
                                     backend="frames")
        rec_tableau = BatchTableauSimulator(
            exp.circuit.num_qubits, 300, rng=3).run(exp.circuit)
        assert np.array_equal(rec_frames, rec_tableau)
        assert np.array_equal(
            rec_frames, np.tile(program.reference_record, (300, 1)))

    def test_xxzz_memory_random_branches_flagged(self):
        exp = build_memory_experiment(XXZZCode(3, 3))
        program = compile_frame_program(exp.circuit, None, rng=1)
        assert program.random_cbits
        # Round-1 X syndromes are indefinite on |0...0>.
        assert set(exp.x_syndrome_cbits[0]) <= set(program.random_cbits)

    def test_xxzz_memory_syndrome_correlations(self):
        """Random first-round X syndromes must repeat identically in
        round 2 (noiseless), be ~uniform across shots, and decode to
        zero logical errors — the frame Z-randomisation at work."""
        exp = build_memory_experiment(XXZZCode(3, 3))
        rec = run_batch_noisy(exp.circuit, None, 600, rng=5, backend="frames")
        xs = np.asarray(exp.x_syndrome_cbits)
        assert np.array_equal(rec[:, xs[0]], rec[:, xs[1]])
        means = rec[:, xs[0]].mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.08)
        decoder = decoder_for(exp)
        assert decoder.decode_batch(exp, rec).num_errors == 0

    def test_plus_state_measurement_uniform(self):
        circ = Circuit(1).h(0).measure(0, 0)
        rec = run_batch_noisy(circ, None, 20_000, rng=6, backend="frames")
        assert rec[:, 0].mean() == pytest.approx(0.5, abs=0.02)

    def test_repeated_measurement_perfectly_correlated(self):
        circ = Circuit(1).h(0).measure(0, 0).measure(0, 1)
        rec = run_batch_noisy(circ, None, 4096, rng=7, backend="frames")
        assert np.array_equal(rec[:, 0], rec[:, 1])

    def test_measurement_recollapse_independent(self):
        """H, M, H, M: the second outcome is uniform and independent of
        the first — measurement must re-randomise the Z frame."""
        circ = Circuit(1).h(0).measure(0, 0).h(0).measure(0, 1)
        rec = run_batch_noisy(circ, None, 20_000, rng=8, backend="frames")
        a = rec[:, 0].astype(float)
        b = rec[:, 1].astype(float)
        assert b.mean() == pytest.approx(0.5, abs=0.02)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    def test_circuit_reset_bit_exact(self):
        circ = Circuit(1).x(0).reset(0).measure(0, 0)
        rec = run_batch_noisy(circ, None, 500, rng=9, backend="frames")
        assert not rec[:, 0].any()

    def test_reset_after_superposition_uniformises_next_basis(self):
        """|+> reset to |0|: a following H+measure is uniform again."""
        circ = Circuit(1).h(0).reset(0).h(0).measure(0, 0)
        rec = run_batch_noisy(circ, None, 20_000, rng=10, backend="frames")
        assert rec[:, 0].mean() == pytest.approx(0.5, abs=0.02)


class TestNoiseLowering:
    def test_depolarizing_statistics(self):
        """Single gate at p flips the Z outcome with prob 2p/3."""
        p = 0.3
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([DepolarizingNoise(p)])
        rec = run_batch_noisy(circ, noise, 20_000, rng=11, backend="frames")
        assert np.mean(rec[:, 0] == 0) == pytest.approx(2 * p / 3, abs=0.02)

    def test_erasure_full_probability_pins_qubit(self):
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([ErasureChannel([0], 1.0)])
        program = compile_frame_program(circ, noise, rng=1)
        assert program.exact_noise       # |1> is Z-determinate
        rec = run_batch_noisy(circ, noise, 400, rng=12, backend="frames")
        assert (rec[:, 0] == 0).all()

    def test_radiation_full_intensity_resets_state(self):
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([RadiationChannel([1.0])])
        rec = run_batch_noisy(circ, noise, 400, rng=13, backend="frames")
        assert (rec[:, 0] == 0).all()

    def test_twirl_sites_detected_on_entangled_targets(self):
        """A reset fault aimed at half a Bell pair is Z-indefinite in
        the reference -> twirled lowering, flagged on the program."""
        circ = Circuit(2).h(0).cx(0, 1).append(Gate(GateType.I, (1,)))
        circ.measure(0, 0).measure(1, 1)
        noise = NoiseModel([ErasureChannel([1], 1.0)])
        program = compile_frame_program(circ, noise, rng=1)
        assert program.twirled_reset_sites > 0
        assert not program.exact_noise

    def test_channel_without_site_table_fails_on_every_backend(self):
        """A channel is its site table: one without fails with one
        error on every backend (``auto`` has nothing to fall back to),
        while a plain subclass is its parent's table and compiles."""

        class Custom(NoiseChannel):
            pass

        class Plain(DepolarizingNoise):
            pass

        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([Custom()])
        for backend in ("auto", "frames", "tableau"):
            with pytest.raises(NotImplementedError,
                               match="Custom defines no site table"):
                run_batch_noisy(circ, noise, 10, rng=1, backend=backend)
        program = compile_frame_program(circ, NoiseModel([Plain(0.1)]))
        assert program.probabilities.tolist() == [0.1]

    def test_executor_auto_requires_exact_lowering(self):
        """backend='auto' keeps the paper's reset semantics: a twirl
        site sends execution down the tableau path; backend='frames'
        forces the approximation."""
        circ = Circuit(2).h(0).cx(0, 1).append(Gate(GateType.I, (1,)))
        circ.measure(0, 0).measure(1, 1)
        noise = NoiseModel([ErasureChannel([1], 1.0)])
        rec_auto = run_batch_noisy(circ, noise, 2000, rng=20,
                                   backend="auto")
        # tableau semantics: true reset to |0> just before the measure
        assert (rec_auto[:, 1] == 0).all()
        rec_frames = run_batch_noisy(circ, noise, 2000, rng=20,
                                     backend="frames")
        # twirl semantics: reset to the maximally mixed state
        assert rec_frames[:, 1].mean() == pytest.approx(0.5, abs=0.04)

    def test_invalid_backend_rejected(self):
        circ = Circuit(1).measure(0, 0)
        with pytest.raises(ValueError, match="backend"):
            run_batch_noisy(circ, None, 8, rng=1, backend="gpu")

    def test_auto_fallback_matches_pinned_tableau_stream(self):
        """When auto rejects the frame lowering, the discarded compile
        must not perturb the caller's rng: the records equal a pinned
        tableau run bit-for-bit."""
        circ = Circuit(2).h(0).cx(0, 1).append(Gate(GateType.I, (1,)))
        circ.measure(0, 0).measure(1, 1)
        noise = NoiseModel([ErasureChannel([1], 1.0)])
        rec_auto = run_batch_noisy(circ, noise, 256, rng=33,
                                   backend="auto")
        rec_pinned = run_batch_noisy(circ, noise, 256, rng=33,
                                     backend="tableau")
        assert np.array_equal(rec_auto, rec_pinned)

    def test_frames_path_advances_shared_generator(self):
        """Repeated calls on one Generator must draw fresh samples:
        the frames path copies its consumed stream state back."""
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([DepolarizingNoise(0.2)])
        rng = np.random.default_rng(0)
        a = run_batch_noisy(circ, noise, 256, rng=rng)
        b = run_batch_noisy(circ, noise, 256, rng=rng)
        assert not np.array_equal(a, b)

    def test_auto_accepts_non_pcg64_generators(self):
        """The rng clone must work for any BitGenerator, not just the
        default PCG64."""
        circ = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([DepolarizingNoise(0.1)])
        for bitgen in (np.random.Philox(5), np.random.SFC64(5)):
            rec = run_batch_noisy(circ, noise, 128,
                                  rng=np.random.Generator(bitgen))
            assert rec.shape == (128, 1)


def reference_run(program, batch_size, seed):
    """Replay a *scalar, unfused* program's ops, reading what the
    kernel reads — each site's ``p`` from ``program.probabilities``,
    each op and answer from ``program.code`` (``oracle.decode``): every
    depolarize site draws its own ``rng.random(B)`` and XORs three
    packed masks.  The oracle the compiled (fused) programs must match
    bit for bit — kept here, not in ``src/``.  Also returns the rows'
    hits."""
    P = frames_program
    sim = FrameSimulator(program.num_qubits, batch_size, rng=seed)
    words = np.zeros((program.num_cbits, sim.num_words), dtype=np.uint64)
    hits = 0
    for op, answer in oracle.decode(program):
        code = op[0]
        if code == P.OP_DEPOLARIZE:
            _, q, site = op
            p = float(program.probabilities[site])
            u = sim.rng.random(batch_size)
            hits += int((u < p).sum())
            third = p / 3.0
            mx = pack_bool(u < third)
            my = pack_bool((u >= third) & (u < 2 * third))
            mz = pack_bool((u >= 2 * third) & (u < p))
            sim.x[q] ^= mx | my
            sim.z[q] ^= mz | my
        elif code == P.OP_MEASURE:
            words[op[2]] = oracle.measure(sim, op[1], answer)
        elif code == P.OP_RESET_NOISE:
            oracle.reset_noise(sim, op[1],
                               float(program.probabilities[op[2]]), answer)
        else:
            {P.OP_H: oracle.h, P.OP_S: oracle.s, P.OP_CX: oracle.cx,
             P.OP_CZ: oracle.cz, P.OP_SWAP: oracle.swap,
             P.OP_RESET: oracle.reset}[code](sim, *op[1:])
    return words, sim, hits


def scalar_program(monkeypatch, circuit, noise):
    """The lowered program before fusion."""
    with monkeypatch.context() as m:
        m.setattr(frames_program, "fuse_layers",
                  lambda ops: [[op] for op in ops])
        return compile_frame_program(circuit, noise, rng=1)


def strike_noise(experiment, p, strike):
    """Depolarizing floor, optionally under a strike whose fault-reset
    sites (``OP_RESET_NOISE``) interleave with the depolarize sites."""
    n = experiment.circuit.num_qubits
    event = RadiationEvent(n // 2, {q: abs(q - n // 2) for q in range(n)},
                           num_qubits=n)
    per_round = (len(experiment.z_syndrome_cbits[0])
                 + len(experiment.x_syndrome_cbits[0]))
    channels = {"none": [], "channel": [event.channel(1)],
                "burst": [event.burst(1, per_round, scale=0.7)]}[strike]
    return NoiseModel(channels + [DepolarizingNoise(p)])


class _CountingRng:
    """A generator that counts its ``random`` calls (one per drawing
    tableau site) and forwards everything else."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestSiteAgreement:
    """The frame lowering and the tableau oracle's interpreter read one
    site table, so they visit the same sites: for every noise case of
    the tableau stream pin, the sites the oracle's walk visits equal the
    compiled structure's ``site_source``."""

    @pytest.mark.parametrize("noise_kind", [
        kind for kind in tableau_stream.NOISES if kind != "none"])
    @pytest.mark.parametrize("circuit_name", sorted(tableau_stream.CIRCUITS))
    def test_tableau_visits_every_frame_site(self, circuit_name, noise_kind,
                                             monkeypatch):
        circuit, distances, nq, mpr = tableau_stream.CIRCUITS[circuit_name]

        def noise():
            return tableau_stream._noise(noise_kind, distances, nq, mpr)

        sites = len(frame_structure(circuit, noise(), rng=0).site_source)
        # The oracle's walk is the interpreter under test (the native
        # one executes the structure's own stream).
        # Every site draws one uniform row, except a certain erasure,
        # which resets every shot unmasked — as a circuit reset does.
        unmasked = [0]
        reset = BatchTableauSimulator.reset

        def counting_reset(sim, a, mask=None):
            unmasked[0] += mask is None
            return reset(sim, a, mask)

        monkeypatch.setattr(BatchTableauSimulator, "reset", counting_reset)
        rng = _CountingRng(1)
        numpy_walk(circuit, noise(), 2, rng)
        circuit_resets = sum(g.gate_type is GateType.RESET for g in circuit)
        visited = rng.random_calls + unmasked[0] - circuit_resets
        assert sites > 0
        assert visited == sites


class TestDrawApply:
    """Each depolarize site draws its own uniform rows and applies them:
    compiled (fused) programs sample bit-identically to the scalar
    per-site reference, on either executor, whole or op range by op
    range."""

    @pytest.fixture(scope="class")
    def experiment(self):
        return build_memory_experiment(XXZZCode(3, 3), rounds=3)

    def assert_matches_reference(self, monkeypatch, experiment, noise,
                                 batch_size, seed=5):
        circuit = experiment.circuit
        program = compile_frame_program(circuit, noise, rng=1)
        sim = FrameSimulator(circuit.num_qubits, batch_size, rng=seed)
        words = sim.run_packed(program)
        ref_words, ref, hits = reference_run(
            scalar_program(monkeypatch, circuit, noise), batch_size, seed)
        assert np.array_equal(words, ref_words)
        assert np.array_equal(sim.x, ref.x)
        assert np.array_equal(sim.z, ref.z)
        # same number of generator calls: the streams stay in step
        assert sim.rng.random() == ref.rng.random()
        assert sim.depolarize_stats[1] == hits
        return program, sim

    @pytest.mark.parametrize("strike", ["none", "channel", "burst"])
    @pytest.mark.parametrize("batch_size", [64, 100, 512, 1000])
    @pytest.mark.parametrize("p", [1e-4, 1e-3, 1e-2, 0.1, 0.3])
    def test_bit_identical_to_per_site_draws(self, monkeypatch, experiment,
                                             p, batch_size, strike,
                                             executor):
        program, sim = self.assert_matches_reference(
            monkeypatch, experiment, strike_noise(experiment, p, strike),
            batch_size)
        ops = [op for op, _ in oracle.decode(program)]
        if strike != "none":
            assert any(op[0] == frames_program.OP_RESET_NOISE for op in ops)
        # one row per depolarize site of the program
        rows = sum(1 if op[0] == frames_program.OP_DEPOLARIZE else len(op[1])
                   for op in ops
                   if op[0] in (frames_program.OP_DEPOLARIZE,
                                frames_program.OP_DEPOLARIZE_LAYER))
        sites, hits = sim.depolarize_stats
        assert sites == rows > 0
        if p * batch_size > 4:
            assert hits > 0
        assert program.fused_ops == sum(
            op[0] >= frames_program.OP_H_LAYER for op in ops)

    @pytest.mark.parametrize("k,B", [(1, 64), (7, 100), (184, 512)])
    def test_numpy_block_draw_contract(self, k, B):
        """What a fused layer's draw rests on: ``Generator.random((k,
        B))`` is ``k`` successive ``random(B)`` calls."""
        per_site = np.random.default_rng(42)
        rows = np.stack([per_site.random(B) for _ in range(k)])
        block = np.random.default_rng(42)
        assert np.array_equal(block.random((k, B)), rows)
        assert block.random() == per_site.random()


@pytest.fixture(scope="module")
def programs():
    """name -> (num_qubits, program)."""
    quiet = build_memory_experiment(XXZZCode(5, 5), rounds=5)
    small = build_memory_experiment(XXZZCode(3, 3), rounds=3)
    out = {}

    def add(name, experiment, noise, tilt=None):
        program = frame_structure(experiment.circuit, noise,
                                  rng=1).bind(noise, tilt)
        out[name] = (experiment.circuit.num_qubits, program)
        return program

    add("quiet", quiet, NoiseModel([DepolarizingNoise(5e-4)]))
    strike = add("twirled-strike", small,
                 strike_noise(small, 1e-3, "channel"))
    assert strike.twirled_reset_sites > 0
    add("dense", small, NoiseModel([DepolarizingNoise(0.1)]))
    tilted = add("tilt", small, NoiseModel([DepolarizingNoise(2e-3)]),
                 tilt=SamplerSpec(kind="tilt", tilt=4.0))
    assert tilted.log_ratios is not None
    for tilt in (2.0, 16.0):
        add(f"tilt-{tilt:g}", quiet, NoiseModel([DepolarizingNoise(1e-3)]),
            tilt=SamplerSpec(kind="tilt", tilt=tilt))
    # a cap that leaves the strong channel's sites at q == p: zero
    # ratios beside moved ones, in scalar sites and layers alike
    strong = range(0, small.circuit.num_qubits, 3)
    capped = add("tilt-capped", small,
                 NoiseModel([DepolarizingNoise(2e-3),
                             DepolarizingNoise(0.02, qubits=strong)]),
                 tilt=SamplerSpec(kind="tilt", tilt=8.0, p_cap=0.01))
    assert (capped.log_ratios == 0).all(axis=0).any()
    assert (capped.log_ratios != 0).all(axis=0).any()
    # X and Z flip sites beside depolarize ones, plain and tilted: the
    # tilt leaves a flip site at its p with zero ratios
    n = small.circuit.num_qubits
    flip_noise = NoiseModel([
        LogicalFaultChannel({q: 0.05 for q in range(0, n, 2)},
                            phase_rates={q: 0.2 for q in range(n)}),
        DepolarizingNoise(2e-3)])
    add("flip", small, flip_noise)
    flips = add("flip-tilt", small, flip_noise,
                tilt=SamplerSpec(kind="tilt", tilt=4.0))
    flip_ops = [op for op, _ in oracle.decode(flips)
                if op[0] == frames_program.OP_FLIP]
    assert {op[3] for op in flip_ops} == {0, 1}
    assert (flips.log_ratios[:, [op[2] for op in flip_ops]] == 0).all()
    # a repetition strike routed onto the 5x4 mesh (exact resets)
    routed = InjectionTask(
        code=CodeSpec("repetition", (5, 1)),
        arch=ArchSpec("mesh", (5, 4)),
        fault=FaultSpec(kind="radiation", root_qubit=2, time_index=1),
        intrinsic_p=1e-2, backend="frames", shots=512, seed=13)
    experiment, _, _, program, _, _ = _task_context(routed)
    assert program.exact_reset_sites > 0
    out["transpiled-strike"] = (experiment.circuit.num_qubits, program)
    return out


class TestLanes:
    """The lane is the unit of randomness: run beside other lanes in
    one wide simulator, a lane's record words, frames, weights and
    final generator state are those of the lone block."""

    @pytest.mark.parametrize("last", [512, 200, 64])
    @pytest.mark.parametrize("lanes", [1, 2, 3, 8])
    @pytest.mark.parametrize("name", ["quiet", "twirled-strike",
                                      "transpiled-strike", "dense", "tilt",
                                      "flip"])
    def test_each_lane_equals_the_lone_block(self, programs, name, lanes,
                                             last, executor):
        num_qubits, program = programs[name]
        sizes = [512] * (lanes - 1) + [last]
        rngs = [np.random.default_rng(100 + i) for i in range(lanes)]
        wide = FrameSimulator(num_qubits, sizes, rng=rngs)
        assert wide.batch_size == sum(sizes)
        words = wide.run_packed(program)
        stats = [0, 0]
        for i, size in enumerate(sizes):
            lone_rng = np.random.default_rng(100 + i)
            lone = FrameSimulator(num_qubits, size, rng=lone_rng)
            lone_words = lone.run_packed(program)
            lo, hi = 8 * i, 8 * i + lone.num_words
            assert np.array_equal(words[:, lo:hi], lone_words)
            assert np.array_equal(wide.x[:, lo:hi], lone.x)
            assert np.array_equal(wide.z[:, lo:hi], lone.z)
            if program.log_ratios is not None:
                assert np.array_equal(
                    wide.log_weights[512 * i:512 * i + size],
                    lone.log_weights)
            assert rngs[i].bit_generator.state \
                == lone_rng.bit_generator.state
            stats = [a + b for a, b in zip(stats, lone.depolarize_stats)]
        assert hi == wide.num_words
        # Sites and hits are counted per lane.
        assert wide.depolarize_stats == stats and stats[1] > 0

    def test_lane_shapes_are_validated(self):
        with pytest.raises(ValueError, match="one generator per lane"):
            FrameSimulator(2, [64, 64], rng=[1])
        with pytest.raises(ValueError, match="whole number"):
            FrameSimulator(2, [100, 64], rng=[1, 2])
        sim = FrameSimulator(2, [128, 100], rng=[1, 2])
        assert (sim.batch_size, sim.num_words) == (228, 4)

    def test_blocks_counter_counts_lanes(self, programs):
        num_qubits, program = programs["twirled-strike"]
        blocks = obs.counter("frames.blocks")
        before = blocks.value
        FrameSimulator(num_qubits, [512, 512, 64],
                       rng=[1, 2, 3]).run_packed(program)
        assert blocks.value - before == 3


def hand_layer(opcode, *columns):
    """The unit of scalar ``opcode`` ops over ``columns`` — one operand
    per column, entry by entry — that :func:`encode_ops` writes as a
    layer."""
    return [(opcode,) + entry for entry in zip(*columns)]


class TestExecutors:
    """``run_packed``'s native op loop (``_kernel.c``) against its
    oracle, the numpy executor (``oracles.frames``): nothing but the
    wall clock may tell them apart — record words, final frames,
    ``log_weights``, ``depolarize_stats`` and every lane's generator
    state are equal, for whole programs and op ranges alike."""

    SIZES = ([512], [512] * 8, [512, 512, 200])
    #: Plain, struck, dense and tilted programs of the fixture.
    NAMES = ["quiet", "twirled-strike", "transpiled-strike", "dense",
             "tilt", "tilt-2", "tilt-16", "tilt-capped", "flip",
             "flip-tilt"]

    @staticmethod
    def run(monkeypatch, native, num_qubits, program, sizes,
            bit_generator=np.random.PCG64, cuts=()):
        """One run on the kernel or the oracle, as the op ranges between
        ``cuts``: ``(words, x, z, log_weights, stats, generator states,
        blocks run)``."""
        with contextlib.ExitStack() as stack:
            if not native:
                stack.enter_context(oracle.numpy_executor())
            rngs = [np.random.Generator(bit_generator(100 + i))
                    for i in range(len(sizes))]
            sim = FrameSimulator(num_qubits, list(sizes), rng=rngs)
            before = blocks_run()
            words, stats = None, [0, 0]
            bounds = [0, *cuts, None]
            for start, stop in zip(bounds, bounds[1:]):
                words = sim.run_packed(program, start, stop, words)
                stats = [a + b for a, b in zip(stats, sim.depolarize_stats)]
            ran = blocks_run() - before
        return (words, sim.x, sim.z, sim.log_weights, stats,
                [rng.bit_generator.state for rng in rngs], ran)

    def assert_executors_agree(self, monkeypatch, num_qubits, program,
                               sizes, bit_generator=np.random.PCG64,
                               cuts=()):
        *native, native_blocks = self.run(
            monkeypatch, True, num_qubits, program, sizes, bit_generator,
            cuts)
        *numpy, numpy_blocks = self.run(
            monkeypatch, False, num_qubits, program, sizes, bit_generator,
            cuts)
        assert native_blocks == numpy_blocks == len(sizes)
        # nested dicts of ints and Philox arrays
        np.testing.assert_equal(native, numpy)
        return native

    @pytest.mark.parametrize("sizes", SIZES, ids=lambda s: f"{len(s)}-lane")
    @pytest.mark.parametrize("name", NAMES)
    def test_records_frames_stats_and_streams_agree(self, monkeypatch,
                                                    programs, name, sizes):
        num_qubits, program = programs[name]
        _, x, z, log_weights, (sites, hits), _ = self.assert_executors_agree(
            monkeypatch, num_qubits, program, sizes)
        assert x.any() and z.any() and sites > 0 and hits > 0
        tilted = program.log_ratios is not None
        assert (log_weights is not None) == tilted
        if tilted:
            assert len(np.unique(log_weights)) > 1

    @pytest.mark.parametrize("sizes", SIZES, ids=lambda s: f"{len(s)}-lane")
    @pytest.mark.parametrize("name", ["twirled-strike", "tilt",
                                      "tilt-capped", "tilt-16", "flip"])
    def test_op_ranges_agree_with_the_whole_program(self, monkeypatch,
                                                    programs, name, sizes):
        """A program run op range by op range — cut anywhere, an empty
        range included — is the program run whole, on either
        executor."""
        num_qubits, program = programs[name]
        n = len(program.ops)
        cuts = [1, n // 5, n // 5, n // 2 + 1, n - 1]
        whole = self.assert_executors_agree(monkeypatch, num_qubits,
                                            program, sizes)
        ranged = self.assert_executors_agree(monkeypatch, num_qubits,
                                             program, sizes, cuts=cuts)
        np.testing.assert_equal(ranged, whole)

    def test_one_shot_tilted_batch_sums_rows_in_order(self, monkeypatch):
        """A tilted layer's ratios are summed in row order on every
        batch size — where ``ndarray.sum`` would go pairwise (a
        one-shot batch, from 8 rows on): a tilted batch of one shot, of
        two, and a plain batch of one."""
        P = frames_program
        k = 12
        units = [hand_layer(P.OP_DEPOLARIZE, range(k), range(k)),
                 hand_layer(P.OP_MEASURE, range(k), range(k))]
        llr = np.random.default_rng(0).normal(size=(2, k))
        tilted = self.hand_program(units, [0.2] * k, k, k, llr)
        self.assert_executors_agree(monkeypatch, k, tilted, [1])
        self.assert_executors_agree(monkeypatch, k, tilted, [2])
        plain = self.hand_program(units, [0.2] * k, k, k)
        self.assert_executors_agree(monkeypatch, k, plain, [1])

    @pytest.mark.parametrize("bit_generator", [np.random.Philox,
                                               np.random.SFC64,
                                               np.random.PCG64DXSM])
    def test_other_64_bit_generators(self, monkeypatch, programs,
                                     bit_generator):
        num_qubits, program = programs["twirled-strike"]
        self.assert_executors_agree(monkeypatch, num_qubits, program,
                                    [512, 200], bit_generator)

    def test_mt19937_lane_is_refused(self, programs):
        """``MT19937`` emits 32-bit raw values, the kernel draws 64-bit
        ones: a simulator with such a lane refuses to run."""
        num_qubits, program = programs["twirled-strike"]
        sim = FrameSimulator(num_qubits, [512, 200],
                             rng=[np.random.default_rng(1),
                                  np.random.Generator(np.random.MT19937(2))])
        with pytest.raises(ValueError, match="MT19937"):
            sim.run_packed(program)
        # ... and so does the frames backend on such a generator
        experiment = build_memory_experiment(RepetitionCode(3), rounds=1)
        with pytest.raises(ValueError, match="MT19937"):
            run_batch_noisy(experiment.circuit, None, 64,
                            rng=np.random.Generator(np.random.MT19937(3)),
                            backend="frames")

    def test_program_without_code_is_refused(self, programs):
        num_qubits, program = programs["dense"]
        with pytest.raises(ValueError, match="no native code"):
            FrameSimulator(num_qubits, 64, rng=0).run_packed(
                dataclasses.replace(program, code=None))

    def test_non_contiguous_frames_are_refused(self, programs):
        num_qubits, program = programs["tilt"]
        for name in ("x", "z", "log_weights"):
            sim = FrameSimulator(num_qubits, 128, rng=0)
            sim.log_weights = np.zeros(sim.batch_size)
            array = getattr(sim, name)
            setattr(sim, name, np.repeat(array[..., None], 2, -1)[..., 0])
            with pytest.raises(ValueError, match="C-ordered"):
                sim.run_packed(program)

    @pytest.mark.parametrize("name", ["tilt", "quiet"])
    def test_tilt_and_shared_generators_agree(self, monkeypatch, programs,
                                              name):
        """Both executors draw op by op and, inside an op, lane by lane,
        each lane all of its rows: lanes that share one generator agree
        too."""
        num_qubits, program = programs[name]
        results = []
        for native in (True, False):
            with contextlib.ExitStack() as stack:
                if not native:
                    stack.enter_context(oracle.numpy_executor())
                shared = np.random.default_rng(3)
                sim = FrameSimulator(num_qubits, [64, 64, 30],
                                     rng=[shared] * 3)
                words = sim.run_packed(program)
            results.append((words, sim.x, sim.z, sim.log_weights,
                            shared.bit_generator.state))
        np.testing.assert_equal(*results)

    def hand_program(self, units, probabilities, num_qubits, num_cbits,
                     log_ratios=None, answers=()):
        """A program from ``encode_ops`` ``units`` — lists of scalar ops,
        a longer one a layer (noise ops carrying site numbers, no
        answers) — the way ``bind`` makes one: for site
        probabilities (and, given ``(2, sites)`` ``log_ratios``, tilt
        ratios) no noise model binds (a site exists iff its
        ``p > 0``).  ``answers`` — reference bits and fault-reset
        ``x_value`` s (``None``: Z-indefinite), in slot order — are
        written into ``code``; without them every answer word is 0."""
        P = frames_program
        p = np.asarray(probabilities, dtype=float)
        llr = None if log_ratios is None else np.array(log_ratios, float)
        code, ops, slots, fused = P.encode_ops(units, num_qubits,
                                               num_cbits, len(p))
        if answers:
            assert len(answers) == len(slots)
            code = code.copy()
            code[slots[:, 0]] = [
                P._INDEFINITE if a is None else a for a in answers]
        return P.FrameProgram(
            num_qubits=num_qubits, num_cbits=num_cbits, ops=ops,
            reference_record=np.zeros(num_cbits, np.uint8),
            fused_ops=fused, code=code, probabilities=p, log_ratios=llr)

    @pytest.mark.parametrize("sizes", SIZES, ids=lambda s: f"{len(s)}-lane")
    def test_reset_sites_at_p_zero_one_and_twirled(self, monkeypatch, sizes):
        """``p == 0`` and ``p == 1`` draw no mask, an empty mask draws
        no words, a twirled site (``x_value is None``) draws X words
        before Z words."""
        P = frames_program
        n = 4
        units = [hand_layer(P.OP_H, range(n))]
        probabilities, answers = [], []
        for p in (0.0, 1.0, 1e-4, 0.3):
            for q, x_value in enumerate((None, 0, 1, None)):
                units.append([(P.OP_RESET_NOISE, q, len(probabilities))])
                probabilities.append(p)
                answers.append(x_value)
            units += [[(P.OP_CX, 0, 1)], [(P.OP_S, 2)], [(P.OP_CZ, 2, 3)],
                      [(P.OP_SWAP, 1, 3)], [(P.OP_H, 0)]]
        units += [[(P.OP_MEASURE, 0, 0)], [(P.OP_RESET, 0)],
                  hand_layer(P.OP_MEASURE, range(n), range(1, n + 1)),
                  hand_layer(P.OP_RESET, [1, 3])]
        answers += [1, 0, 1, 0, 1]
        program = self.hand_program(units, probabilities, n, n + 1,
                                    answers=answers)
        assert [answer for _, answer in oracle.decode(program)[1:5]] \
            == [None, 0, 1, None]
        words, *_ = self.assert_executors_agree(monkeypatch, n, program,
                                                sizes)
        assert words.any()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bare_depolarize_sites_draw_their_own_rows(self, monkeypatch,
                                                       weighted):
        """Hand-built depolarize sites, scalar and fused, tilted or not
        — a scalar site and a layer row with both ratios 0 included."""
        P = frames_program
        units = [[(P.OP_DEPOLARIZE, 0, 0)],
                 hand_layer(P.OP_DEPOLARIZE, [1, 2], [1, 2]),
                 [(P.OP_DEPOLARIZE, 3, 3)],
                 hand_layer(P.OP_MEASURE, range(4), range(4))]
        llr = [[-1.2, 0.5, 0.0, 0.0], [0.1, -0.01, 0.0, 0.0]]
        program = self.hand_program(units, [0.3, 1e-3, 0.02, 0.05], 4, 4,
                                    llr if weighted else None)
        _, _, _, log_weights, stats, _ = self.assert_executors_agree(
            monkeypatch, 4, program, [512, 200])
        assert stats[0] == 4 * 2
        assert (log_weights is not None) == weighted

    @pytest.mark.parametrize("op,what", [
        ([(frames_program.OP_CX, 0, 5)], "qubit"),
        ([(frames_program.OP_H, -1)], "qubit"),
        ([(frames_program.OP_MEASURE, 0, 3)], "cbit"),
        ([(frames_program.OP_RESET_NOISE, 0, 2)], "site"),
        (hand_layer(frames_program.OP_CX, [0, 1], [2, 7]), "qubit"),
        (hand_layer(frames_program.OP_DEPOLARIZE, [0, 1], [0, 2]), "site"),
    ])
    def test_out_of_range_operand_is_rejected_at_encode_time(self, op, what):
        """The kernel indexes unchecked; where the numpy executor would
        raise ``IndexError`` mid-run, encoding raises it up front."""
        with pytest.raises(IndexError, match=what):
            frames_program.encode_ops([op], 5, 3, 2)

    def test_stream_that_does_not_fit_its_arrays_is_refused(self, programs):
        """The stream carries the bounds it was encoded under; a
        program whose probabilities or record fall short of them never
        reaches the kernel."""
        num_qubits, program = programs["twirled-strike"]
        header = program.code[:frames_program.CODE_HEADER].tolist()
        assert header == [program.num_qubits, program.num_cbits,
                          len(program.probabilities)]
        for short in (
                dataclasses.replace(
                    program, probabilities=program.probabilities[:-1]),
                dataclasses.replace(program,
                                    num_cbits=program.num_cbits - 1),
                dataclasses.replace(
                    program,
                    probabilities=program.probabilities.astype(np.float32))):
            with pytest.raises(ValueError, match="does not fit"):
                FrameSimulator(num_qubits, 64, rng=0).run_packed(short)
        # ... nor one whose tilt ratios fall short of its sites
        num_qubits, tilted = programs["tilt"]
        for short in (tilted.log_ratios[:, :-1],
                      np.asfortranarray(tilted.log_ratios)):
            with pytest.raises(ValueError, match="does not fit"):
                FrameSimulator(num_qubits, 64, rng=0).run_packed(
                    dataclasses.replace(tilted, log_ratios=short))

    def test_encoding_is_per_structure_and_binding_a_gather(self):
        P = frames_program
        experiment = build_memory_experiment(RepetitionCode(3), rounds=2)
        n = experiment.circuit.num_qubits
        structure = frame_structure(experiment.circuit,
                                    strike_noise(experiment, 0.01, "burst"))
        one = structure.bind(strike_noise(experiment, 0.01, "burst"))
        two = structure.bind(strike_noise(experiment, 0.02, "burst"))
        tilted = structure.bind(strike_noise(experiment, 0.01, "burst"),
                                SamplerSpec(kind="tilt", tilt=4.0))
        # one code and its op offsets, shared by identity
        assert one.ops is two.ops is tilted.ops is structure.ops
        assert one.code is two.code is tilted.code is structure.code
        for array in (structure.code, structure.ops):
            assert array.dtype == np.int64
            assert not array.flags.writeable
        # no noise op holds a float, no measure or fault reset an
        # answer beside its answer word
        ops = [op for op, _ in oracle.decode(structure)]
        assert len(ops) == len(structure.ops)
        kinds = {op[0] for op in ops}
        assert {P.OP_DEPOLARIZE, P.OP_RESET_NOISE, P.OP_MEASURE} <= kinds
        for op in ops:
            assert all(np.asarray(operand).dtype.kind == "i"
                       for operand in op), op
            if op[0] in (P.OP_MEASURE, P.OP_RESET_NOISE, P.OP_DEPOLARIZE,
                         P.OP_MEASURE_LAYER, P.OP_DEPOLARIZE_LAYER):
                assert len(op) == 3, op
        # the binding is a gather of the noise model's site tables
        for program, p in ((one, 0.01), (two, 0.02)):
            noise = strike_noise(experiment, p, "burst")
            table = np.concatenate([ch.site_table(n).table.ravel()
                                    for ch in noise])
            assert program.probabilities.dtype == np.float64
            assert np.array_equal(program.probabilities,
                                  table[structure.site_source])
            assert program.log_ratios is None
        assert not np.array_equal(one.probabilities, two.probabilities)
        assert tilted.log_ratios.dtype == np.float64
        assert tilted.log_ratios.shape == (2, len(structure.site_source))


def assert_same_program(got, want):
    """What the kernel reads — ``code``, ``probabilities`` and
    ``log_ratios`` — dtype and values, plus the metadata and the
    reference record."""
    for name in ("num_qubits", "num_cbits", "random_cbits",
                 "exact_reset_sites", "twirled_reset_sites",
                 "num_channels", "fused_ops"):
        assert getattr(got, name) == getattr(want, name), name
    assert len(got.ops) == len(want.ops)
    assert (got.log_ratios is None) == (want.log_ratios is None)
    for name in ("reference_record", "code", "probabilities",
                 "log_ratios"):
        a, b = getattr(got, name), getattr(want, name)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name


def counted(name):
    return obs.counter(name).value


class TestStructureAndBinding:
    """A frame program is a shared structure plus a per-point binding:
    the campaign's memoised route (``_frame_program``) must hand every
    point the program a fresh per-point compile would."""

    ROOTS = (0, 3)
    FAULTS = (
        FaultSpec(),
        FaultSpec(kind="radiation", root_qubit=ROOTS[0], time_index=0),
        FaultSpec(kind="radiation", root_qubit=ROOTS[0], time_index=4),
        FaultSpec(kind="radiation", root_qubit=ROOTS[1], time_index=0),
        FaultSpec(kind="radiation", root_qubit=ROOTS[0], time_index=0,
                  spread=False),
        FaultSpec(kind="erasure", qubits=(2,), probability=1.0),
        FaultSpec(kind="erasure", qubits=(2,), probability=0.25),
        FaultSpec(kind="radiation", root_qubit=ROOTS[0], strike_round=1),
        FaultSpec(kind="radiation", root_qubit=ROOTS[1], strike_round=1,
                  intensity=0.5),
    )
    #: Distinct site signatures among FAULTS on a connected device:
    #: none, spreading strike, root-only strike, erasure, burst.
    SIGNATURES = 5
    P_VALUES = (1e-4, 1e-3, 1e-2)

    def routes(self, task):
        """One task down the memoised route and through a fresh
        per-point compile: ``(memoised program, fresh program, circuit
        width, structures the memoised route compiled, structures it
        reseeded, programs it bound, noise model)``."""
        experiment, _, _ = _prepared(
            task.code, task.rounds, task.basis, task.arch, task.layout,
            task.decoder, task.readout)
        noise = _build_noise(task, experiment)
        names = ("frames.compiles", "frames.reseeds", "frames.binds")
        before = [counted(name) for name in names]
        memoised = _frame_program(task, experiment, noise)
        compiles, reseeds, binds = (counted(name) - b
                                    for name, b in zip(names, before))
        fresh = compile_frame_program(experiment.circuit, noise,
                                      rng=frame_ref_seed(task.seed))
        return (memoised, fresh, experiment.circuit.num_qubits, compiles,
                reseeds, binds, noise)

    @pytest.mark.parametrize("arch", [None, ArchSpec("mesh", (5, 4)),
                                      ArchSpec("cairo")],
                             ids=["no-arch", "mesh", "heavy-hex"])
    @pytest.mark.parametrize("code", [CodeSpec("repetition", (5, 1)),
                                      CodeSpec("xxzz", (3, 3))],
                             ids=["repetition", "xxzz"])
    def test_bound_program_equals_fresh_compile(self, code, arch, executor):
        _structure_cell.cache_clear()
        compiles = reseeds = binds = points = 0
        for fault in self.FAULTS:
            for p in self.P_VALUES:
                points += 1
                memoised, fresh, n, compiled, reseeded, bound, noise = \
                    self.routes(InjectionTask(
                        code=code, arch=arch, fault=fault, intrinsic_p=p,
                        backend="frames", seed=points))
                compiles += compiled
                reseeds += reseeded
                binds += bound
                assert_same_program(memoised, fresh)
                for tilt in (None, SamplerSpec(kind="tilt", tilt=4.0)):
                    a = FrameSimulator(n, 100, rng=points)
                    b = FrameSimulator(n, 100, rng=points)
                    assert np.array_equal(
                        a.run_packed(memoised.structure.bind(noise, tilt)),
                        b.run_packed(fresh.structure.bind(noise, tilt)))
                    assert np.array_equal(a.shot_weights(),
                                          b.shot_weights())
                    assert (a.log_weights is None) == (tilt is None)
                    assert a.rng.random() == b.rng.random()
        assert binds == points
        # one compile per site signature; a random-branch reference
        # reseeds the signature's structure for every later task seed
        assert compiles == self.SIGNATURES
        if code.kind == "repetition":
            assert not memoised.structure.seeded
            assert reseeds == 0
        else:
            assert memoised.structure.seeded
            assert reseeds == points - self.SIGNATURES

    def test_random_reference_is_reseeded_per_task_seed(self):
        """Four task seeds on one XXZZ circuit and one site signature
        share one compile; each gets its own reference sample."""
        _structure_cell.cache_clear()
        base = InjectionTask(code=CodeSpec("xxzz", (3, 3)),
                             intrinsic_p=1e-3, backend="frames")
        programs, work = [], []
        for seed in (1, 2, 3, 4):
            memoised, fresh, _, compiled, reseeded, _, _ = self.routes(
                dataclasses.replace(base, seed=seed))
            work.append((compiled, reseeded))
            assert_same_program(memoised, fresh)
            programs.append(memoised)
        assert work == [(1, 0), (0, 1), (0, 1), (0, 1)]
        assert all(p.structure.seeded for p in programs)
        assert len({id(p.structure) for p in programs}) == len(programs)
        assert len({p.reference_record.tobytes() for p in programs}) > 1

    @pytest.mark.parametrize("first,second", [
        (FaultSpec(kind="radiation", root_qubit=2),
         FaultSpec(kind="radiation", root_qubit=2, spread=False)),
        (FaultSpec(kind="erasure", qubits=(2,)),
         FaultSpec(kind="erasure", qubits=(2, 3))),
        (FaultSpec(kind="radiation", root_qubit=2, strike_round=0),
         FaultSpec(kind="radiation", root_qubit=2, strike_round=1)),
    ], ids=["spread", "erasure-qubits", "strike-round"])
    def test_support_change_misses_the_memo(self, first, second):
        _structure_cell.cache_clear()
        base = InjectionTask(code=CodeSpec("repetition", (5, 1)),
                             intrinsic_p=1e-3, seed=5)
        compiled = []
        for fault in (first, second, first, second):
            memoised, fresh, _, compiles, _, _, _ = self.routes(
                dataclasses.replace(base, fault=fault))
            assert_same_program(memoised, fresh)
            compiled.append(compiles)
        assert compiled == [1, 1, 0, 0]

    def test_auto_fallback_is_decided_once_per_structure(self):
        """Whether reset sites are twirled is a fact of the tableau's
        x-bits, not of the reference seed: the second ``auto`` point of
        a twirled structure falls back without compiling or
        reseeding."""
        _structure_cell.cache_clear()
        base = InjectionTask(
            code=CodeSpec("xxzz", (3, 3)), intrinsic_p=1e-3,
            fault=FaultSpec(kind="radiation", root_qubit=2, time_index=0))
        c0 = counted("frames.compiles")
        r0 = counted("frames.reseeds")
        f0 = counted("engine.backend_fallbacks")
        for seed, time_index in ((1, 0), (2, 4), (3, 8)):
            task = dataclasses.replace(
                base, seed=seed, fault=dataclasses.replace(
                    base.fault, time_index=time_index))
            experiment, _, _ = _prepared(
                task.code, task.rounds, task.basis, task.arch, task.layout,
                task.decoder, task.readout)
            assert _frame_program(task, experiment,
                                  _build_noise(task, experiment)) is None
        assert counted("frames.compiles") - c0 == 1
        assert counted("frames.reseeds") == r0
        assert counted("engine.backend_fallbacks") - f0 == 3
        # ... while backend="frames" reseeds it for its own program
        forced = dataclasses.replace(base, seed=9, backend="frames")
        memoised, fresh, _, compiled, reseeded, _, _ = self.routes(forced)
        assert (compiled, reseeded) == (0, 1)
        assert_same_program(memoised, fresh)
        assert not memoised.exact_noise

    def test_shared_arrays_are_read_only(self):
        experiment = build_memory_experiment(XXZZCode(3, 3), rounds=2)
        structure = frame_structure(
            experiment.circuit, strike_noise(experiment, 0.01, "none"))
        one = structure.bind(strike_noise(experiment, 0.01, "none"))
        two = structure.bind(strike_noise(experiment, 0.02, "none"))
        shared = [one.ops, one.code, one.reference_record] + [
            getattr(structure, name) for name in (
                "site_source", "reference_stream", "answer_slots",
                "draw_certain")]
        assert one.ops is two.ops
        assert one.code is two.code
        assert one.reference_record is two.reference_record
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        # the probabilities are the program's own
        assert one.probabilities is not two.probabilities
        assert one.probabilities.dtype == two.probabilities.dtype == float
        assert not np.array_equal(one.probabilities, two.probabilities)

    def test_bind_rejects_a_model_with_other_sites(self):
        experiment = build_memory_experiment(RepetitionCode(3), rounds=2)
        structure = frame_structure(experiment.circuit,
                                    NoiseModel([DepolarizingNoise(0.01)]))
        for other in (None, NoiseModel([ErasureChannel([0], 0.5)]),
                      NoiseModel([DepolarizingNoise(0.01, qubits=[0])]),
                      NoiseModel([DepolarizingNoise(
                          0.01, include_measurements=True)])):
            with pytest.raises(ValueError, match="other sites"):
                structure.bind(other)


def native_reference(stream, num_qubits, rng):
    from repro.frames import _native

    return _native.kernel().reference(stream, num_qubits, rng)


def on_reference(executor, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every compile's reference pass on
    the kernel or on its oracle (``oracles.frames.replay_reference``)
    — the sampler runs on the kernel either way."""
    with contextlib.ExitStack() as stack:
        if executor == "python":
            stack.enter_context(oracle.python_reference())
        return fn(*args, **kwargs)


def same_state(a, b):
    """Equal bit-generator states (MT19937's holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k])
                                            for k in a)
    return np.array_equal(a, b)


def e2e_specs(seed):
    """The e2e benchmark's workloads at their default size
    (``benchmarks/e2e/workloads.py``), by name."""
    def strike(root, t):
        return {"kind": "radiation", "root_qubit": root, "time_index": t}

    return {
        "quiet_deep": [{"codes": [["xxzz", [5, 5]]], "rounds": 5,
                        "p_values": [5e-4], "backend": "frames",
                        "root_seed": seed}],
        "strike_decode": [{"codes": [["xxzz", [5, 5]]], "rounds": 5,
                           "p_values": [1e-3], "decoder": decoder,
                           "backend": "frames", "root_seed": seed,
                           "faults": [strike(12, t) for t in (0, 1, 2)]}
                          for decoder in ("mwpm", "union-find")],
        "fig5_grid": [{"codes": [code], "archs": [arch],
                       "faults": [strike(2, t) for t in (0, 2, 4, 6, 8)],
                       "p_values": [10.0 ** e for e in range(-8, 0)],
                       "root_seed": seed}
                      for code, arch in ((["repetition", [5, 1]],
                                          {"name": "mesh", "args": [5, 2]}),
                                         (["xxzz", [3, 3]],
                                          {"name": "mesh", "args": [5, 4]}))],
        "service_sweep": [{
            "codes": [["repetition", [d, 1]] for d in (3, 5, 7, 9)],
            "archs": [{"name": "mesh", "args": [5, 4]}, "almaden",
                      "johannesburg", "cairo"],
            "faults": [{"kind": "none"}] + [
                strike(root, t) for root in (0, 5) for t in (0, 4, 8)],
            "p_values": [1e-4, 1e-3, 1e-2], "root_seed": seed}],
    }


class TestReferencePass:
    """The reference pass on ``_kernel.c`` and on its oracle, the
    Python replay of the same stream: one structure — ops, reference
    record and random branches, fault-reset values, site rows, code,
    ``seeded`` — and one generator state after the compile, on every
    circuit the campaigns compile and on random ones."""

    @staticmethod
    def assert_executors_agree(circuit, noise, make_rng):
        out = {}
        for executor in ("native", "python"):
            rng = make_rng()
            out[executor] = (on_reference(executor, frame_structure,
                                          circuit, noise, rng), rng)
        (native, native_rng), (python, python_rng) = out["native"], \
            out["python"]
        assert_same_program(native.bind(noise), python.bind(noise))
        assert native.seeded == python.seeded
        assert np.array_equal(native.site_source, python.site_source)
        assert np.array_equal(native.code, python.code)
        assert same_state(native_rng.bit_generator.state,
                          python_rng.bit_generator.state)
        return native

    @pytest.mark.parametrize("seed", [2024, 7])
    @pytest.mark.parametrize("workload", ["quiet_deep", "strike_decode",
                                          "fig5_grid", "service_sweep"])
    def test_every_e2e_circuit(self, workload, seed):
        """Each workload's distinct (circuit, fault, decoder) points,
        compiled at the reference seed of their first task in the
        workload's campaign — p moves no structure."""
        tasks = [task for spec in e2e_specs(seed)[workload]
                 for task in build_sweep(spec).tasks]
        seen = {}
        for task in Campaign(tasks, root_seed=seed)._seeded():
            seen.setdefault((task.code, task.arch, task.fault,
                             task.decoder), task)
        structures = []
        for task in seen.values():
            experiment, _, _ = _prepared(
                task.code, task.rounds, task.basis, task.arch, task.layout,
                task.decoder, task.readout)
            structures.append(self.assert_executors_agree(
                experiment.circuit, _build_noise(task, experiment),
                lambda: np.random.default_rng(frame_ref_seed(task.seed))))
        if workload == "strike_decode":
            # the struck XXZZ(5,5) at t = 0, 1, 2 per decoder: seeded,
            # twirled, one reference sample per task seed
            assert len(structures) == 6
            assert len({s.reference_record.tobytes()
                        for s in structures}) > 1
            assert all(s.seeded and s.twirled_reset_sites
                       for s in structures)

    def test_past_one_word_of_qubits(self):
        """XXZZ(7,7) under a strike: 98 qubits, two tableau words."""
        experiment = build_memory_experiment(XXZZCode(7, 7), rounds=2)
        assert experiment.circuit.num_qubits > 64
        structure = self.assert_executors_agree(
            experiment.circuit, strike_noise(experiment, 1e-3, "burst"),
            lambda: np.random.default_rng(3))
        assert structure.seeded and structure.twirled_reset_sites

    @pytest.mark.parametrize("arch", ["cairo", "johannesburg"])
    def test_transpiled_repetition_with_swaps(self, arch):
        task = InjectionTask(
            code=CodeSpec("repetition", (9, 1)), arch=ArchSpec(arch),
            fault=FaultSpec(kind="radiation", root_qubit=4, time_index=1),
            intrinsic_p=1e-3, backend="frames", seed=11)
        experiment, _, _ = _prepared(
            task.code, task.rounds, task.basis, task.arch, task.layout,
            task.decoder, task.readout)
        assert any(g.gate_type is GateType.SWAP
                   for g in experiment.circuit)
        structure = self.assert_executors_agree(
            experiment.circuit, _build_noise(task, experiment),
            lambda: np.random.default_rng(frame_ref_seed(task.seed)))
        assert structure.exact_reset_sites

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(num_qubits=st.one_of(st.integers(1, 9), st.integers(63, 67)),
           prefix_gates=st.integers(0, 150), num_gates=st.integers(0, 60),
           measure_prob=st.floats(0.0, 0.4), reset_prob=st.floats(0.0, 0.3),
           circuit_seed=st.integers(0, 2 ** 32 - 1),
           rng_seed=st.integers(0, 2 ** 32 - 1),
           bit_generator=st.sampled_from([np.random.PCG64,
                                          np.random.MT19937,
                                          np.random.Philox]),
           noise_seed=st.integers(0, 2 ** 32 - 1))
    def test_random_clifford_circuits(self, num_qubits, prefix_gates,
                                      num_gates, measure_prob, reset_prob,
                                      circuit_seed, rng_seed, bit_generator,
                                      noise_seed):
        """A random unitary prefix, then random gates, measurements and
        resets, with fault-reset sites after most gates.  The prefix
        spreads the stabilizers, so later answers multiply several of
        them and a wrong rowsum phase shows."""
        circuit = random_clifford_circuit(num_qubits, prefix_gates,
                                          rng=circuit_seed)
        for gate in random_clifford_circuit(
                num_qubits, num_gates, rng=circuit_seed + 1,
                measure_prob=measure_prob, reset_prob=reset_prob):
            circuit.append(gate)
        pick = np.random.default_rng(noise_seed)
        radiation = np.where(pick.random(num_qubits) < 0.8,
                             pick.random(num_qubits), 0.0)
        erased = pick.choice(num_qubits, size=1 + num_qubits // 4,
                             replace=False).tolist()
        noise = NoiseModel([RadiationChannel(radiation),
                            DepolarizingNoise(1e-2),
                            ErasureChannel(erased, float(pick.random()))])
        self.assert_executors_agree(
            circuit, noise, lambda: np.random.Generator(bit_generator(
                rng_seed)))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(num_qubits=st.integers(1, 9), prefix_gates=st.integers(0, 300),
           num_gates=st.integers(0, 60), measure_prob=st.floats(0.0, 0.4),
           circuit_seed=st.integers(0, 2 ** 32 - 1),
           rng_seed=st.integers(0, 2 ** 32 - 1))
    def test_streams_querying_every_qubit(self, num_qubits, prefix_gates,
                                          num_gates, measure_prob,
                                          circuit_seed, rng_seed):
        """Both executors called directly on one stream that queries
        every qubit after every gate: each answer multiplies in every
        stabilizer its destabilizers pick, so every rowsum phase term
        is exercised."""
        gates = list(random_clifford_circuit(
            num_qubits, prefix_gates, rng=circuit_seed)) + list(
            random_clifford_circuit(num_qubits, num_gates,
                                    rng=circuit_seed + 1,
                                    measure_prob=measure_prob,
                                    reset_prob=measure_prob / 4))
        stream = []
        for gate in gates:
            ref_op, _ = frames_program._LOWERING[gate.gate_type]
            stream += [ref_op, *gate.qubits]
            for q in range(num_qubits):
                stream += [frames_program.REF_QUERY, q]
        native_rng = np.random.default_rng(rng_seed)
        python_rng = np.random.default_rng(rng_seed)
        assert native_reference(stream, num_qubits, native_rng) \
            == oracle.replay_reference(stream, num_qubits, python_rng)
        assert same_state(native_rng.bit_generator.state,
                          python_rng.bit_generator.state)

    @pytest.mark.parametrize("time_index", [0, 1, 2])
    def test_batch_records_reuse_the_compile_generator(self, time_index):
        """``run_batch_noisy(backend="frames")`` samples from the
        generator its compile drew from: equal records on both
        reference executors."""
        task = InjectionTask(
            code=CodeSpec("xxzz", (3, 3)), rounds=3,
            fault=FaultSpec(kind="radiation", root_qubit=4,
                            time_index=time_index),
            intrinsic_p=1e-2, backend="frames", seed=5)
        experiment, _, _ = _prepared(
            task.code, task.rounds, task.basis, task.arch, task.layout,
            task.decoder, task.readout)
        noise = _build_noise(task, experiment)
        circuit = experiment.circuit
        native, python = (
            on_reference(e, run_batch_noisy, circuit, noise, 300, rng=17,
                         backend="frames")
            for e in ("native", "python"))
        assert np.array_equal(native, python)

    def test_a_zero_qubit_circuit_is_rejected_on_both(self):
        circuit = Circuit(1)
        circuit.num_qubits = 0
        for executor in ("native", "python"):
            with pytest.raises(ValueError, match="at least one qubit"):
                on_reference(executor, frame_structure, circuit, None, 1)


def measure_layers(structure):
    """Each measure layer's reference bits, as ``code`` holds them."""
    return [answer for op, answer in oracle.decode(structure)
            if op[0] == frames_program.OP_MEASURE_LAYER]


class TestReseed:
    """A structure compiled at one seed and reseeded at another is the
    structure a compile at the other seed gives — bound program, code,
    reference record and random branches, reset counts, ``seeded`` —
    and leaves the generator where that compile leaves it, with the
    reference pass on either executor."""

    @staticmethod
    def assert_reseed_is_compile(executor, structure, circuit, noise,
                                 make_rng):
        got_rng, want_rng = make_rng(), make_rng()
        got = on_reference(executor, structure.reseed, got_rng)
        want = on_reference(executor, frame_structure, circuit, noise,
                            want_rng)
        assert got.ops is structure.ops
        assert_same_program(got.bind(noise), want.bind(noise))
        for name in ("code", "reference_record", "reference_stream",
                     "answer_slots", "site_source"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        for name in ("random_cbits", "exact_reset_sites",
                     "twirled_reset_sites", "seeded", "fused_ops",
                     "signature"):
            assert getattr(got, name) == getattr(want, name), name
        assert same_state(got_rng.bit_generator.state,
                          want_rng.bit_generator.state)
        for array in (got.code, got.reference_record):
            assert not array.flags.writeable
        return got

    @pytest.mark.parametrize("executor", ["native", "python"])
    @pytest.mark.parametrize("seed", [2024, 7])
    @pytest.mark.parametrize("workload", ["quiet_deep", "strike_decode",
                                          "fig5_grid", "service_sweep"])
    def test_every_seeded_e2e_point(self, workload, seed, executor):
        """Per (circuit, site signature) of the workload, one structure
        compiled at a seed no task uses, reseeded at every seeded
        point's reference seed."""
        tasks = [task for spec in e2e_specs(seed)[workload]
                 for task in build_sweep(spec).tasks]
        structures = {}
        points = code_moved = layers_moved = 0
        for task in Campaign(tasks, root_seed=seed)._seeded():
            experiment, _, _ = _prepared(
                task.code, task.rounds, task.basis, task.arch, task.layout,
                task.decoder, task.readout)
            circuit = experiment.circuit
            noise = _build_noise(task, experiment)
            key = (task.code, task.rounds, task.arch,
                   frames_program.site_signature(noise, circuit.num_qubits))
            if key not in structures:
                structures[key] = frame_structure(circuit, noise, rng=0)
            structure = structures[key]
            if not structure.seeded:
                continue
            points += 1
            got = self.assert_reseed_is_compile(
                executor, structure, circuit, noise,
                lambda: np.random.default_rng(frame_ref_seed(task.seed)))
            code_moved += not np.array_equal(got.code, structure.code)
            layers_moved += any(
                not np.array_equal(a, b) for a, b in
                zip(measure_layers(got), measure_layers(structure)))
        # repetition circuits draw nothing; every XXZZ memory does
        expected = {"quiet_deep": 1, "strike_decode": 6, "fig5_grid": 40,
                    "service_sweep": 0}[workload]
        assert points == expected
        # every reseed moved answers in code; a quiet memory's random
        # first round is measure layers (a strike's fault resets split
        # its rounds into scalar measures)
        assert code_moved == points
        assert bool(layers_moved) == (workload == "quiet_deep")

    @pytest.mark.parametrize("executor", ["native", "python"])
    def test_past_one_word_of_qubits(self, executor):
        experiment = build_memory_experiment(XXZZCode(7, 7), rounds=2)
        noise = strike_noise(experiment, 1e-3, "burst")
        structure = frame_structure(experiment.circuit, noise, rng=3)
        got = self.assert_reseed_is_compile(
            executor, structure, experiment.circuit, noise,
            lambda: np.random.default_rng(4))
        assert got.seeded and got.twirled_reset_sites
        assert not np.array_equal(got.code, structure.code)

    @pytest.mark.parametrize("executor", ["native", "python"])
    def test_transpiled_repetition_with_swaps(self, executor):
        task = InjectionTask(
            code=CodeSpec("repetition", (9, 1)), arch=ArchSpec("cairo"),
            fault=FaultSpec(kind="radiation", root_qubit=4, time_index=1),
            intrinsic_p=1e-3, backend="frames", seed=11)
        experiment, _, _ = _prepared(
            task.code, task.rounds, task.basis, task.arch, task.layout,
            task.decoder, task.readout)
        assert any(g.gate_type is GateType.SWAP
                   for g in experiment.circuit)
        noise = _build_noise(task, experiment)
        structure = frame_structure(experiment.circuit, noise, rng=1)
        got = self.assert_reseed_is_compile(
            executor, structure, experiment.circuit, noise,
            lambda: np.random.default_rng(frame_ref_seed(task.seed)))
        assert got.exact_reset_sites and not got.seeded

    @pytest.mark.parametrize("executor", ["native", "python"])
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(num_qubits=st.one_of(st.integers(1, 9), st.integers(63, 67)),
           prefix_gates=st.integers(0, 150), num_gates=st.integers(0, 60),
           measure_prob=st.floats(0.0, 0.4), reset_prob=st.floats(0.0, 0.3),
           circuit_seed=st.integers(0, 2 ** 32 - 1),
           seeds=st.tuples(st.integers(0, 2 ** 32 - 1),
                           st.integers(0, 2 ** 32 - 1)),
           bit_generator=st.sampled_from([np.random.PCG64,
                                          np.random.MT19937,
                                          np.random.Philox]),
           noise_seed=st.integers(0, 2 ** 32 - 1))
    def test_random_clifford_circuits(self, executor, num_qubits,
                                      prefix_gates, num_gates, measure_prob,
                                      reset_prob, circuit_seed, seeds,
                                      bit_generator, noise_seed):
        """Random circuits with radiation, depolarize and erasure sites
        (as ``TestReferencePass``), compiled at one seed and reseeded
        at another."""
        circuit = random_clifford_circuit(num_qubits, prefix_gates,
                                          rng=circuit_seed)
        for gate in random_clifford_circuit(
                num_qubits, num_gates, rng=circuit_seed + 1,
                measure_prob=measure_prob, reset_prob=reset_prob):
            circuit.append(gate)
        pick = np.random.default_rng(noise_seed)
        radiation = np.where(pick.random(num_qubits) < 0.8,
                             pick.random(num_qubits), 0.0)
        erased = pick.choice(num_qubits, size=1 + num_qubits // 4,
                             replace=False).tolist()
        noise = NoiseModel([RadiationChannel(radiation),
                            DepolarizingNoise(1e-2),
                            ErasureChannel(erased, float(pick.random()))])
        first, second = seeds
        structure = frame_structure(
            circuit, noise, np.random.Generator(bit_generator(first)))
        self.assert_reseed_is_compile(
            executor, structure, circuit, noise,
            lambda: np.random.Generator(bit_generator(second)))

    def test_reseeds_count_no_compile(self):
        """A reseed counts ``frames.reseeds``, never
        ``frames.compiles``."""
        structure = frame_structure(
            build_memory_experiment(XXZZCode(3, 3), rounds=1).circuit,
            None, rng=1)
        names = ("frames.compiles", "frames.reseeds")
        before = [counted(name) for name in names]
        structure.reseed(2)
        assert [counted(name) - b for name, b in zip(names, before)] \
            == [0, 1]

    def test_a_strike_sweep_compiles_once(self, tmp_path):
        """A ``strike_decode``-shaped campaign — struck XXZZ(3,3) at
        three time samples, MWPM and union-find — compiles once and
        reseeds five times, and banks the chunk rows it banks when
        every point compiles its own structure."""
        tasks = Campaign([
            task for decoder in ("mwpm", "union-find")
            for task in build_sweep({
                "codes": [["xxzz", [3, 3]]], "rounds": 3,
                "p_values": [1e-3], "decoder": decoder,
                "faults": [{"kind": "radiation", "root_qubit": 4,
                            "time_index": t} for t in (0, 1, 2)],
                "backend": "frames", "shots": 1024}).tasks],
            root_seed=12)._seeded()
        assert len(tasks) == 6

        def banked(store):
            return [[dataclasses.replace(c, elapsed_s=0.0)
                     for c in store.chunks_for(task_key(t))] for t in tasks]

        def counts():
            return [counted(f"frames.{name}")
                    for name in ("compiles", "reseeds", "binds")]

        _structure_cell.cache_clear()
        _task_context.cache_clear()
        before = counts()
        shared = CampaignStore(tmp_path / "shared.jsonl")
        Campaign(tasks).run(chunk_shots=SIM_BLOCK, workers=1, resume=shared)
        assert [b - a for a, b in zip(before, counts())] == [1, 5, 6]

        before = counts()
        alone = CampaignStore(tmp_path / "alone.jsonl")
        for task in tasks:
            _structure_cell.cache_clear()
            _task_context.cache_clear()
            Campaign([task]).run(chunk_shots=SIM_BLOCK, workers=1,
                                 resume=alone)
        assert [b - a for a, b in zip(before, counts())] == [6, 0, 6]
        assert banked(shared) == banked(alone)
        assert all(len(rows) == 2 for rows in banked(shared))

        # An auto point on the (twirled) cell still falls back without
        # compiling or reseeding.
        task = dataclasses.replace(tasks[0], backend="auto", seed=99)
        experiment, _, _ = _prepared(
            task.code, task.rounds, task.basis, task.arch, task.layout,
            task.decoder, task.readout)
        before = counts()
        fallbacks = counted("engine.backend_fallbacks")
        assert _frame_program(task, experiment,
                              _build_noise(task, experiment)) is None
        assert counts() == before
        assert counted("engine.backend_fallbacks") - fallbacks == 1


class TestCrossValidation:
    """Frame vs batch-tableau agreement on seeded campaigns."""

    def _ler_pair(self, task):
        frames = run_task(dataclasses.replace(task, backend="frames"))
        tableau = run_task(dataclasses.replace(task, backend="tableau"))
        return frames, tableau

    @pytest.mark.parametrize("distance,shots", [((3, 3), 4096)])
    def test_rotated_code_depolarizing_d3(self, distance, shots):
        """Acceptance: seeded frame-backend campaign on the d=3 rotated
        code reproduces the tableau LER within overlapping 95% Wilson
        intervals."""
        task = InjectionTask(code=CodeSpec("xxzz", distance),
                             intrinsic_p=0.02, shots=shots, seed=101)
        f, t = self._ler_pair(task)
        assert f.shots == t.shots == shots
        assert wilson_overlap(f.errors, f.shots, t.errors, t.shots)

    @pytest.mark.slow
    def test_rotated_code_depolarizing_d5(self):
        """Acceptance: the d=5 rotated code (49 qubits) agrees too."""
        task = InjectionTask(code=CodeSpec("xxzz", (5, 5)),
                             intrinsic_p=0.02, shots=2048, seed=102)
        f, t = self._ler_pair(task)
        assert wilson_overlap(f.errors, f.shots, t.errors, t.shots)

    def test_repetition_erasure_exact_path(self):
        """Reset faults on a repetition code stay on the exact frame
        path (the whole reference is Z-basis), so LERs must agree."""
        task = InjectionTask(
            code=CodeSpec("repetition", (5, 1)),
            fault=FaultSpec(kind="erasure", qubits=(2,), probability=1.0),
            intrinsic_p=0.01, shots=4096, seed=103)
        f, t = self._ler_pair(task)
        assert wilson_overlap(f.errors, f.shots, t.errors, t.shots)

    def test_repetition_radiation_exact_path(self):
        task = InjectionTask(
            code=CodeSpec("repetition", (5, 1)),
            fault=FaultSpec(kind="radiation", root_qubit=2, time_index=0),
            intrinsic_p=0.01, shots=4096, seed=104)
        f, t = self._ler_pair(task)
        assert wilson_overlap(f.errors, f.shots, t.errors, t.shots)

    def test_xxzz_moderate_radiation_forced_frames(self):
        """At moderate strike intensity the twirl approximation is well
        inside the statistical noise."""
        task = InjectionTask(
            code=CodeSpec("xxzz", (3, 3)),
            fault=FaultSpec(kind="radiation", root_qubit=4, time_index=2),
            intrinsic_p=0.01, shots=4096, seed=105)
        f, t = self._ler_pair(task)
        assert wilson_overlap(f.errors, f.shots, t.errors, t.shots)

    @pytest.mark.slow
    def test_xxzz_full_intensity_twirl_bias_bounded(self):
        """Worst case for the approximation (t=0 strike on an entangled
        code): forced frames stay within 0.1 absolute LER of the true
        reset semantics.  Documents the bias rather than hiding it."""
        task = InjectionTask(
            code=CodeSpec("xxzz", (3, 3)),
            fault=FaultSpec(kind="radiation", root_qubit=4, time_index=0),
            intrinsic_p=0.01, shots=4096, seed=106)
        f, t = self._ler_pair(task)
        assert abs(f.logical_error_rate - t.logical_error_rate) < 0.1


class TestEngineIntegration:
    def make_task(self, **kw):
        base = dict(code=CodeSpec("repetition", (3, 1)), intrinsic_p=0.05,
                    shots=1300, seed=42)
        base.update(kw)
        return InjectionTask(**base)

    def test_backend_participates_in_task_key(self):
        t = self.make_task()
        assert task_key(t) != task_key(
            dataclasses.replace(t, backend="tableau"))

    def test_invalid_backend_rejected_by_spec(self):
        with pytest.raises(ValueError, match="backend"):
            self.make_task(backend="gpu")

    def test_auto_equals_forced_frames_when_exact(self):
        t = self.make_task()
        assert counts(run_task(t)) == \
            counts(run_task(dataclasses.replace(t, backend="frames")))

    def test_chunk_invariance_on_frame_path(self):
        """The reproducibility contract holds for the frame backend:
        counts depend only on the task, never on chunking."""
        t = self.make_task()
        single = run_task(t, chunk_shots=t.shots)
        for chunk_shots in (SIM_BLOCK, 1000, None):
            assert counts(run_task(t, chunk_shots=chunk_shots)) \
                == counts(single)

    def test_resume_mid_point_on_frame_path(self, tmp_path):
        t = self.make_task(shots=1536, seed=9)
        store = CampaignStore(tmp_path / "store.jsonl")
        store.append_chunk(task_key(t), next(iter_task_chunks(
            t, chunk_shots=SIM_BLOCK)))
        rs = Campaign([t]).run(workers=1, resume=store)
        assert counts(rs[0]) == counts(run_task(t))

    def test_campaign_backend_override(self):
        frames, tableau = (
            Campaign([self.make_task(seed=s, shots=600, backend=backend)
                      for s in (1, 2)]).run(workers=1)
            for backend in ("frames", "tableau"))
        assert all(r.task.backend == "frames" for r in frames)
        assert all(r.task.backend == "tableau" for r in tableau)
        # different random streams, same physics
        assert counts(frames) != counts(tableau)
        for fr, tr in zip(frames, tableau):
            assert wilson_overlap(fr.errors, fr.shots, tr.errors, tr.shots)

    def test_sweep_spec_backend_knob(self):
        campaign = build_sweep({"codes": [["repetition", [3, 1]]],
                                "backend": "tableau"})
        assert campaign.tasks[0].backend == "tableau"

    def test_result_rows_report_backend(self):
        rs = Campaign([self.make_task(shots=128)]).run(workers=1)
        assert rs.to_rows()[0]["backend"] == "auto"

    def test_sweep_on_one_circuit_compiles_once(self):
        """Two time samples x three p on one transpiled circuit: one
        structure, six bindings — and the counts the per-point compile
        produced before structures were shared (rows pinned there)."""
        _structure_cell.cache_clear()
        _task_context.cache_clear()
        campaign = build_sweep({
            "codes": [{"kind": "repetition", "distance": [5, 1]}],
            "archs": [{"name": "mesh", "args": [5, 2]}],
            "faults": [{"kind": "radiation", "root_qubit": 2,
                        "time_index": t} for t in (0, 4)],
            "p_values": [1e-3, 1e-2, 5e-2], "shots": 1024,
            "root_seed": 7})
        compiles, binds = counted("frames.compiles"), counted("frames.binds")
        fallbacks = counted("engine.backend_fallbacks")
        results = campaign.run(workers=1)
        assert counted("frames.compiles") - compiles == 1
        assert counted("frames.binds") - binds == 6
        assert counted("engine.backend_fallbacks") == fallbacks
        assert [(r.shots, r.errors) for r in results] == [
            (1024, 518), (1024, 569), (1024, 518),
            (1024, 45), (1024, 133), (1024, 382)]

    def test_xxzz_radiation_auto_falls_back_to_tableau(self):
        """auto on a twirl-lowering task must reproduce the tableau
        stream bit-for-bit (it *is* the tableau path)."""
        t = InjectionTask(
            code=CodeSpec("xxzz", (3, 3)),
            fault=FaultSpec(kind="radiation", root_qubit=2, time_index=0),
            intrinsic_p=0.01, shots=512, seed=7)
        auto = run_task(t)
        pinned = run_task(dataclasses.replace(t, backend="tableau"))
        assert counts(auto) == counts(pinned)


class TestStoreMerge:
    def shard(self, tmp_path, name, tasks):
        path = tmp_path / name
        Campaign(tasks, root_seed=11).run(workers=1,
                                          resume=CampaignStore(path))
        return path

    def make_task(self, i, **kw):
        # Explicit seeds: a sharded campaign pins per-task seeds up
        # front so every host derives identical task keys.
        base = dict(code=CodeSpec("repetition", (3, 1)), intrinsic_p=0.05,
                    shots=600, seed=100 + i)
        base.update(kw)
        return InjectionTask(**base).with_tags(idx=i)

    def test_merge_disjoint_shards_resumes(self, tmp_path):
        tasks = [self.make_task(i) for i in range(4)]
        a = self.shard(tmp_path, "a.jsonl", tasks[:2])
        b = self.shard(tmp_path, "b.jsonl", tasks[2:])
        out = tmp_path / "merged.jsonl"
        stats = CampaignStore.merge(out, [a, b])
        assert stats["done"] == 4
        assert stats["duplicate_done"] == 0
        merged = CampaignStore(out)
        campaign = Campaign(tasks, root_seed=11)
        assert campaign.banked(merged) == 4
        # the merged store reproduces an uninterrupted run exactly
        uninterrupted = Campaign(tasks, root_seed=11).run(workers=1)
        resumed = Campaign(tasks, root_seed=11).run(workers=1,
                                                    resume=merged)
        assert counts(resumed) == counts(uninterrupted)

    def test_merge_deduplicates_overlap(self, tmp_path):
        tasks = [self.make_task(i) for i in range(3)]
        a = self.shard(tmp_path, "a.jsonl", tasks[:2])   # 0, 1
        b = self.shard(tmp_path, "b.jsonl", tasks[1:])   # 1, 2 (overlap)
        out = tmp_path / "merged.jsonl"
        stats = CampaignStore.merge(out, [a, b])
        assert stats["done"] == 3
        assert stats["duplicate_done"] == 1
        assert stats["conflicting_chunks"] == 0
        assert Campaign(tasks, root_seed=11).banked(
            CampaignStore(out)) == 3

    def test_merge_keeps_richer_done_record(self, tmp_path):
        """A fixed-budget completion outranks an adaptive early stop of
        the same point."""
        from repro.injection import AdaptivePolicy

        t = self.make_task(0, shots=8192, seed=7)
        early_path = tmp_path / "early.jsonl"
        Campaign([t]).run(workers=1,
                          adaptive=AdaptivePolicy(rel_halfwidth=0.25),
                          resume=CampaignStore(early_path))
        full_path = tmp_path / "full.jsonl"
        full = Campaign([t]).run(workers=1,
                                 resume=CampaignStore(full_path))
        out = tmp_path / "merged.jsonl"
        CampaignStore.merge(out, [early_path, full_path])
        banked = CampaignStore(out).result_for(t)
        assert banked.shots == full[0].shots == t.shots

    def test_merge_flags_conflicting_chunks(self, tmp_path):
        import json

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        row = {"kind": "chunk", "key": "k", "start": 0, "shots": 512,
               "errors": 5, "raw_errors": 6, "corrections": 7,
               "elapsed_s": 0.1}
        a.write_text(json.dumps(row) + "\n")
        row2 = dict(row, errors=9)
        b.write_text(json.dumps(row2) + "\n")
        stats = CampaignStore.merge(tmp_path / "out.jsonl", [a, b])
        assert stats["duplicate_chunks"] == 1
        assert stats["conflicting_chunks"] == 1
        # first seen wins
        kept = CampaignStore(tmp_path / "out.jsonl").chunks_for("k")
        assert kept[0].errors == 5
        # same start at a *different* chunk size is a legitimate
        # different-chunk_shots overlap, not a conflict
        c = tmp_path / "c.jsonl"
        c.write_text(json.dumps(dict(row, shots=1024, errors=9)) + "\n")
        stats = CampaignStore.merge(tmp_path / "out2.jsonl", [a, c])
        assert stats["duplicate_chunks"] == 1
        assert stats["conflicting_chunks"] == 0

    def test_merge_flags_conflicting_done_records(self, tmp_path):
        import json

        row = {"kind": "done", "key": "k", "shots": 512, "errors": 5,
               "raw_errors": 6, "corrections": 7}
        (tmp_path / "a.jsonl").write_text(json.dumps(row) + "\n")
        (tmp_path / "b.jsonl").write_text(
            json.dumps(dict(row, errors=9)) + "\n")
        stats = CampaignStore.merge(
            tmp_path / "out.jsonl",
            [tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
        assert stats["duplicate_done"] == 1
        assert stats["conflicting_done"] == 1
        # different shot budgets are a legitimate adaptive-vs-fixed
        # overlap, not a conflict
        (tmp_path / "c.jsonl").write_text(
            json.dumps(dict(row, shots=1024, errors=11)) + "\n")
        stats = CampaignStore.merge(
            tmp_path / "out2.jsonl",
            [tmp_path / "a.jsonl", tmp_path / "c.jsonl"])
        assert stats["conflicting_done"] == 0

    def test_merge_into_existing_out_is_incremental(self, tmp_path):
        tasks = [self.make_task(i) for i in range(2)]
        out = self.shard(tmp_path, "merged.jsonl", tasks[:1])
        b = self.shard(tmp_path, "b.jsonl", tasks[1:])
        stats = CampaignStore.merge(out, [b])
        assert stats["inputs"] == 2      # existing out joined the merge
        assert stats["done"] == 2

    def test_merge_missing_shard_skipped_with_warning(self, tmp_path):
        """A missing shard must not abort the merge mid-way: it is
        skipped with a warning so the surviving shards still land."""
        with pytest.warns(RuntimeWarning, match="unreadable store shard"):
            stats = CampaignStore.merge(tmp_path / "out.jsonl",
                                        [tmp_path / "nope.jsonl"])
        assert stats["skipped_inputs"] == 1
        assert stats["done"] == 0

    def test_merge_tolerates_empty_and_garbage_shards(self, tmp_path):
        """Empty and undecodable shards are skipped with warnings while
        healthy shards merge normally (a host dying mid-write must not
        take down the fleet's merge)."""
        tasks = [self.make_task(i) for i in range(2)]
        good = self.shard(tmp_path, "good.jsonl", tasks)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_bytes(b"\xff\xfe\x00notjson\xff" * 8)
        out = tmp_path / "merged.jsonl"
        with pytest.warns(RuntimeWarning):
            stats = CampaignStore.merge(out, [good, empty, garbage])
        assert stats["skipped_inputs"] == 2
        assert stats["done"] == 2
        assert Campaign(tasks, root_seed=11).banked(CampaignStore(out)) == 2

    def test_merge_drops_malformed_records(self, tmp_path):
        """Records missing their key/start fields are dropped (and
        counted) instead of raising mid-merge."""
        tasks = [self.make_task(0)]
        good = self.shard(tmp_path, "good.jsonl", tasks)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "chunk", "shots": 10}\n'
                       '{"kind": "done", "shots": 10}\n'
                       '{"kind": "chunk", "key": "k", "start": "zero"}\n')
        out = tmp_path / "merged.jsonl"
        with pytest.warns(RuntimeWarning):
            stats = CampaignStore.merge(out, [good, bad])
        assert stats["malformed_records"] == 3
        assert stats["done"] == 1

    def test_truncated_store_load_keeps_prefix(self, tmp_path):
        """A store truncated inside a multi-byte sequence still loads
        the records written before the tear."""
        tasks = [self.make_task(0)]
        path = self.shard(tmp_path, "s.jsonl", tasks)
        data = path.read_bytes()
        path.write_bytes(data + b'{"kind": "done", "key": "\xc3')
        with pytest.warns(RuntimeWarning, match="undecodable"):
            store = CampaignStore(path)
        assert len(store) == 1
