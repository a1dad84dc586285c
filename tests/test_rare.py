"""Tests for the rare-event importance-sampling subsystem (repro.rare).

The statistical backbone: tilted and splitting estimators must agree
with plain Monte Carlo at an operating point all three can resolve;
weights must be conserved in expectation; weight degeneracy (ESS) must
respond monotonically to the tilt; and weighted records must keep every
one of the engine's determinism contracts — chunk-size invariance,
store resume, and workers=1|2|4 bit-identity.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro import obs
from repro.circuits import Circuit
from repro.codes import XXZZCode, build_memory_experiment
from repro.frames import FrameSimulator, frame_structure
from repro.injection import Campaign, CodeSpec, FaultSpec, InjectionTask
from repro.injection.adaptive import AdaptivePolicy
from repro.injection.campaign import (_task_context, iter_task_chunks,
                                      run_task)
from repro.injection.results import (SIM_BLOCK, ChunkResult,
                                     wilson_interval)
from repro.injection.store import CampaignStore, task_key
from repro.injection.sweep import build_sweep
from repro.noise import (DepolarizingNoise, NoiseModel, RadiationEvent,
                         run_batch_noisy)
from repro.rare.sampler import SamplerSpec, as_sampler
from repro.rare.stats import (WeightStats, mc_required_shots,
                              variance_reduction_factor, wilson_from_rate)

from oracles import frames as frames_oracle
from oracles import tableau as tableau_oracle
from oracles.tableau import numpy_walk


def moderate_task(sampler=SamplerSpec(), shots=4096, seed=7, **kw):
    """d=3 rotated code at an LER (~0.007) every sampler resolves."""
    defaults = dict(code=CodeSpec("xxzz", (3, 3)), intrinsic_p=0.004,
                    rounds=2, readout="data", shots=shots, seed=seed,
                    sampler=sampler)
    defaults.update(kw)
    return InjectionTask(**defaults)


class _EdgeRng:
    """A generator whose uniforms fire every site on shot 0 (``u = 0``)
    and none on the others (``u`` just under 1); everything else is
    forwarded to a seeded generator."""

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)

    def random(self, size):
        u = np.full(size, np.nextafter(1.0, 0.0))
        u[0] = 0.0
        return u

    def __getattr__(self, name):
        return getattr(self._rng, name)


# ----------------------------------------------------------------------
# SamplerSpec / parsing
# ----------------------------------------------------------------------
class TestSamplerSpec:
    def test_defaults_are_plain_mc(self):
        spec = SamplerSpec()
        assert spec.kind == "mc" and not spec.weighted
        assert spec.label == "mc"

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerSpec(kind="magic")
        with pytest.raises(ValueError):
            SamplerSpec(kind="tilt", tilt=0.5)
        with pytest.raises(ValueError):
            SamplerSpec(kind="split", levels=0)
        with pytest.raises(ValueError):
            SamplerSpec(kind="split", base=1.0)
        with pytest.raises(ValueError):
            SamplerSpec(target_rel=0.0)

    def test_auto_tilt(self):
        assert SamplerSpec(kind="tilt").auto_tilt
        assert not SamplerSpec(kind="tilt", tilt=8.0).auto_tilt
        assert SamplerSpec(kind="tilt").label == "tilt:auto"

    def test_as_sampler_parsing(self):
        assert as_sampler(None) == SamplerSpec()
        assert as_sampler("mc") == SamplerSpec()
        assert as_sampler("tilt:8") == SamplerSpec(kind="tilt", tilt=8.0)
        assert as_sampler("split:3") == SamplerSpec(kind="split", levels=3)
        assert as_sampler({"kind": "tilt", "tilt": 4}) == \
            SamplerSpec(kind="tilt", tilt=4)
        with pytest.raises(ValueError):
            as_sampler("mc:3")
        with pytest.raises(ValueError):
            as_sampler(42)

    def test_sampler_shapes_task_key(self):
        base = moderate_task()
        tilted = dataclasses.replace(
            base, sampler=SamplerSpec(kind="tilt", tilt=4.0))
        assert task_key(base) != task_key(tilted)


# ----------------------------------------------------------------------
# Weighted statistics
# ----------------------------------------------------------------------
class TestWeightStats:
    def test_unit_weights_match_counts(self):
        st = WeightStats.from_counts(1000, 17)
        assert st.ess == 1000
        assert st.estimate("sn") == st.estimate("ht") == 17 / 1000

    def test_weighted_wilson_reduces_to_wilson(self):
        """At unit weights the weighted interval equals the classic
        Wilson interval (same float core)."""
        st = WeightStats.from_counts(2048, 31)
        lo, hi = st.wilson_interval()
        clo, chi = wilson_interval(31, 2048)
        assert lo == pytest.approx(clo, rel=1e-12)
        assert hi == pytest.approx(chi, rel=1e-12)

    def test_wilson_from_rate_is_the_wilson_core(self):
        assert wilson_interval(7, 1536) == wilson_from_rate(7 / 1536, 1536)

    def test_addition(self):
        a = WeightStats.from_weights([1.0, 2.0], [True, False])
        b = WeightStats.from_weights([0.5], [True])
        c = a + b
        assert c.shots == 3
        assert c.wsum == 3.5 and c.esum == 1.5
        assert c.esq == 1.0 + 0.25

    def test_ess_bounds(self):
        st = WeightStats.from_weights([1.0, 1.0, 1.0, 5.0],
                                      [False] * 4)
        assert 1.0 <= st.ess <= 4.0

    def test_estimator_modes(self):
        st = WeightStats.from_weights([2.0, 0.5, 0.5, 1.0],
                                      [True, False, False, False])
        assert st.estimate("ht") == 2.0 / 4
        assert st.estimate("sn") == 2.0 / 4.0
        with pytest.raises(ValueError):
            st.estimate("mean")

    def test_variance_reduction_factor(self):
        # A tilted run whose error shots carry weight 0.1: ten times
        # less variance per error than Bernoulli at the same rate.
        w = np.full(1000, 1.0)
        e = np.zeros(1000, dtype=bool)
        e[:50] = True
        w[:50] = 0.1
        st = WeightStats.from_weights(w, e)
        assert variance_reduction_factor(st, 0.2) > 1.0
        assert mc_required_shots(0.0, 0.2) == float("inf")


# ----------------------------------------------------------------------
# Statistical cross-validation (the subsystem's core claim)
# ----------------------------------------------------------------------
def _se(stats: WeightStats) -> float:
    return math.sqrt(stats.variance("sn"))


def _consistent(a: WeightStats, b: WeightStats, z: float = 3.5) -> bool:
    """Two estimates agree within a combined z-sigma band."""
    gap = abs(a.estimate("sn") - b.estimate("sn"))
    return gap <= z * math.hypot(_se(a), _se(b)) + 1e-12


class TestCrossValidation:
    SHOTS = 16384

    def _stats(self, sampler, backend="auto", shots=None):
        task = moderate_task(sampler=sampler, backend=backend,
                             shots=shots or self.SHOTS)
        return run_task(task).weight_stats

    def test_tilt_matches_mc_frames(self):
        mc = self._stats(SamplerSpec())
        tilt = self._stats(SamplerSpec(kind="tilt", tilt=4.0))
        assert tilt.shots == self.SHOTS
        assert _consistent(mc, tilt)

    def test_split_matches_mc_frames(self):
        mc = self._stats(SamplerSpec())
        split = self._stats(SamplerSpec(kind="split", levels=1),
                            backend="frames")
        assert _consistent(mc, split)

    @pytest.mark.slow
    def test_tilt_matches_mc_tableau(self):
        mc = self._stats(SamplerSpec(), backend="tableau", shots=4096)
        tilt = self._stats(SamplerSpec(kind="tilt", tilt=4.0),
                           backend="tableau", shots=4096)
        assert _consistent(mc, tilt)

    def test_weighted_rate_reported(self):
        r = run_task(moderate_task(SamplerSpec(kind="tilt", tilt=4.0),
                                   shots=2048))
        assert r.weighted
        assert r.logical_error_rate == r.weight_stats.estimate("sn")
        row = r.to_row()
        assert row["sampler"] == "tilt:4"
        assert "ess" in row and "ler_ht" in row


# ----------------------------------------------------------------------
# Weight conservation + ESS monotonicity (property tests)
# ----------------------------------------------------------------------
class TestWeightProperties:
    def test_tilt_weight_conservation(self):
        """E[w] = 1 per shot: the mean weight must sit within a few
        standard errors of 1."""
        st = run_task(moderate_task(SamplerSpec(kind="tilt", tilt=2.0),
                                    shots=8192)).weight_stats
        n = st.shots
        var_w = max(st.wsq / n - (st.wsum / n) ** 2, 0.0)
        se = math.sqrt(var_w / n)
        assert abs(st.weight_mean - 1.0) <= 5.0 * se + 1e-9

    def test_split_weight_conservation(self):
        """Systematic resampling conserves total weight in expectation
        (lanes are correlated, so the bound is loose but tight enough
        to catch a wrong discount)."""
        st = run_task(moderate_task(SamplerSpec(kind="split", levels=1),
                                    backend="frames",
                                    shots=8192)).weight_stats
        assert abs(st.weight_mean - 1.0) < 0.1

    def test_ess_monotone_in_tilt(self):
        """More tilt, more weight spread, less effective sample."""
        esses = []
        for tilt in (1.5, 3.0, 6.0, 12.0):
            st = run_task(moderate_task(
                SamplerSpec(kind="tilt", tilt=tilt),
                shots=4096)).weight_stats
            assert 1.0 <= st.ess <= st.shots + 1e-9
            esses.append(st.ess)
        assert all(a > b for a, b in zip(esses, esses[1:])), esses

    def test_clamp_never_undersamples(self):
        """A site whose nominal p already exceeds the cap samples at p
        (plain MC, zero LLR) — never below it (regression: the old
        clamp order could push q under p and silently *under*-sample
        the tail).  Both backends read the one clamp."""
        spec = SamplerSpec(kind="tilt", tilt=8.0, p_cap=0.001)
        for p, q in ((0.002, 0.002), (0.0001, 0.0008)):
            table = DepolarizingNoise(p).site_table(1).tilted(spec)
            assert table.table[0, 0] == q
            assert (table.llr[:, 0, 0] == 0.0).all() == (q == p)
        # q == p at every site: the binding is the plain program, and
        # both backends leave every shot at unit weight
        circuit = Circuit(1).x(0).measure(0, 0)
        noise = NoiseModel([DepolarizingNoise(0.002)])
        program = frame_structure(circuit, noise).bind(noise, spec)
        assert program.log_ratios is None
        assert program.probabilities.tolist() == [0.002]
        sim = FrameSimulator(1, 64, rng=0)
        sim.run_packed(program)
        assert sim.log_weights is None
        for backend in ("frames", "tableau"):
            _, weights = run_batch_noisy(circuit, noise, 64, rng=0,
                                         backend=backend, tilt=spec)
            assert np.all(weights == 1.0)

    @pytest.mark.parametrize("walk", ["native", "numpy"])
    def test_tilted_tableau_stream_matches_plain_at_q_eq_p(self, walk):
        """The tableau tilts by reading the tilted table: at ``q == p``
        the tilted walk must draw and flip exactly as the plain walk —
        records and generator state bit-identical — and leave every
        shot at unit weight, natively and on the oracle's numpy walk."""
        circuit = build_memory_experiment(XXZZCode(3, 3)).circuit
        n = circuit.num_qubits
        event = RadiationEvent(2, {q: abs(q - 2) for q in range(n)},
                               num_qubits=n)
        plain = NoiseModel([DepolarizingNoise(1e-2), event.channel(4)])
        spec = SamplerSpec(kind="tilt", tilt=1.0)
        def run(rng, tilt=None):
            if walk == "numpy":
                return numpy_walk(circuit, plain, batch, rng, tilt)
            return run_batch_noisy(circuit, plain, batch, rng=rng,
                                   backend="tableau", tilt=tilt)

        for batch in (1, 63, 512):
            rngs = [np.random.default_rng(batch) for _ in range(2)]
            want = run(rngs[0])
            got, weights = run(rngs[1], spec)
            # the walk reads a table with ratios, all zero at q == p
            llr = plain.channels[0].site_table(n).tilted(spec).llr
            assert llr is not None and not llr.any()
            assert np.array_equal(got, want)
            assert (rngs[1].bit_generator.state
                    == rngs[0].bit_generator.state)
            assert np.all(weights == 1.0)

    def test_untilted_frames_have_unit_weights(self):
        sim = FrameSimulator(4, 130, rng=3)
        assert sim.log_weights is None
        assert np.all(sim.shot_weights() == 1.0)

    P, TILT = 0.01, 5.0
    #: One depolarize site, after an X gate.
    ONE_SITE = Circuit(1).x(0)

    def _site_llr(self, fired):
        p, q = self.P, self.TILT * self.P
        return np.where(fired, math.log(p / q), math.log((1 - p) / (1 - q)))

    def test_tilted_site_llr_is_exact(self):
        """One depolarize site of a tilted frame program: fired shots
        carry log(p/q), the rest log((1-p)/(1-q))."""
        from repro.frames.packing import unpack_words

        noise = NoiseModel([DepolarizingNoise(self.P)])
        program = frame_structure(self.ONE_SITE, noise).bind(
            noise, SamplerSpec(kind="tilt", tilt=self.TILT))
        sim = FrameSimulator(1, 256, rng=11)
        sim.z[:] = 0   # clear the random initial Z frame: after the
        # site fires, x|z holds exactly the error mask
        sim.run_packed(program)
        fired = (unpack_words(sim.x[0], 256)
                 | unpack_words(sim.z[0], 256)).astype(bool)
        assert 0 < fired.sum() < 256
        assert np.allclose(sim.log_weights, self._site_llr(fired))

    def test_tilted_tableau_site_llr_is_exact(self):
        """The same site on the tableau: its one uniform row (the walk's
        only draw) fires at q — an X or Y, ``u < 2q/3``, flips the
        readout — and weights the shot like the frame site."""
        noise = NoiseModel([DepolarizingNoise(self.P)])
        records, weights = run_batch_noisy(
            Circuit(1).x(0).measure(0, 0), noise, 256, rng=11,
            backend="tableau",
            tilt=SamplerSpec(kind="tilt", tilt=self.TILT))
        u = np.random.default_rng(11).random(256)
        q = self.TILT * self.P
        assert np.array_equal(records[:, 0], 1 ^ (u < 2 * q / 3))
        fired = u < q
        assert 0 < fired.sum() < 256
        assert np.allclose(np.log(weights), self._site_llr(fired))

    def test_backends_tilt_the_same_sites(self, monkeypatch):
        """The frame binding and the tableau oracle's interpreter read
        one tilted table: over intrinsic depolarizing noise, a strike and
        a plain ``DepolarizingNoise`` subclass, they visit the same sites
        in the same order with the same ``(q, llr_hit, llr_miss)`` and
        bank the same weights; fault-reset sites are never tilted."""
        from repro.frames.program import (OP_DEPOLARIZE,
                                          OP_DEPOLARIZE_LAYER,
                                          OP_RESET_NOISE)

        class Regional(DepolarizingNoise):
            """A subclass that changes nothing a site table shows."""

        circuit = build_memory_experiment(XXZZCode(3, 3), rounds=2).circuit
        n = circuit.num_qubits
        event = RadiationEvent(2, {q: abs(q - 2) for q in range(n)},
                               num_qubits=n)
        noise = NoiseModel([DepolarizingNoise(2e-3), event.channel(1),
                            Regional(0.3, qubits=range(0, n, 2))])
        spec = SamplerSpec(kind="tilt", tilt=4.0)
        structure = frame_structure(circuit, noise, rng=0)
        nominal = structure.bind(noise).probabilities
        program = structure.bind(noise, spec)
        ops = [op for op, _ in frames_oracle.decode(structure)]
        reset_sites = {op[2] for op in ops if op[0] == OP_RESET_NOISE}
        assert reset_sites
        depolarize_sites = {site for op in ops
                            if op[0] in (OP_DEPOLARIZE, OP_DEPOLARIZE_LAYER)
                            for site in np.atleast_1d(op[2]).tolist()}
        sites = len(structure.site_source)
        assert depolarize_sites | reset_sites == set(range(sites))
        assert not depolarize_sites & reset_sites
        # every depolarize site's ratios sit in the bound arrays, which
        # the tilt moved; the code is the structure's
        assert program.ops is structure.ops
        assert program.code is structure.code
        assert program.log_ratios.dtype == np.float64
        assert program.log_ratios.shape == (2, sites)
        assert program.log_ratios.flags.c_contiguous
        assert (program.log_ratios[:, sorted(depolarize_sites)]
                != 0).any(axis=0).all()
        frames = [("reset" if s in reset_sites else "depolarize",
                   program.probabilities[s], *program.log_ratios[:, s])
                  for s in range(len(structure.site_source))]
        for s in reset_sites:
            assert frames[s][1:] == (nominal[s], 0.0, 0.0)
        assert {q for kind, q, *_ in frames if kind == "depolarize"} \
            == {8e-3, 0.5}

        seen = []
        interpret = tableau_oracle.apply_sites
        # The oracle's walk is the interpreter under test (the native
        # one executes the bound program itself).

        def spy(t, gate, sim, rng):
            r, qubits = t.sites_after(gate)
            for qubit in qubits:
                llr = (0.0, 0.0) if t.llr is None else t.llr[:, r, qubit]
                seen.append((t.kind, t.table[r, qubit], *llr))
            interpret(t, gate, sim, rng)

        monkeypatch.setattr(tableau_oracle, "apply_sites", spy)
        _, weights = numpy_walk(circuit, noise, 2, _EdgeRng(), spec)
        assert seen == frames
        # shot 0 fires every site, shot 1 none: each banks the ratios
        # one by one, in site order
        banked = [0.0, 0.0]
        for _, _, hit, miss in frames:
            banked = [banked[0] + hit, banked[1] + miss]
        assert weights.tolist() == np.exp(banked).tolist()


# ----------------------------------------------------------------------
# Splitting internals
# ----------------------------------------------------------------------
class TestSplitting:
    def test_systematic_parents_expected_counts(self):
        from repro.rare.split import systematic_parents

        g = np.array([1.0, 1.0, 6.0, 0.0001])
        counts = np.zeros(4)
        for u0 in np.linspace(0.0, 0.999, 200):
            parents = systematic_parents(g, u0)
            counts += np.bincount(parents, minlength=4)
        counts /= 200
        expect = 4 * g / g.sum()
        assert np.allclose(counts, expect, atol=0.15)

    def test_uniform_scores_resample_to_identity(self):
        from repro.rare.split import systematic_parents

        g = np.ones(64)
        assert np.array_equal(systematic_parents(g, 0.5), np.arange(64))

    def test_split_points_land_on_round_boundaries(self):
        task = moderate_task(SamplerSpec(kind="split", levels=3),
                             backend="frames", rounds=4)
        from repro.rare.split import split_points

        experiment, _, _, program, _, _ = _task_context(task)
        points = split_points(program, experiment, 3)
        assert 1 <= len(points) <= 3
        rounds_done = [r for _, r in points]
        assert rounds_done == sorted(set(rounds_done))
        assert all(1 <= r < 4 for r in rounds_done)

    @pytest.mark.parametrize("distance,rounds", [(3, 4), (5, 5)])
    def test_split_points_sit_after_a_measure(self, distance, rounds):
        """A boundary sits right after the measure that completes its
        round: the segment before it has written every record bit the
        scores read, and no op after it measures that round."""
        from repro.frames.program import OP_MEASURE, OP_MEASURE_LAYER
        from repro.rare.split import split_points

        def measured(op):
            if op[0] == OP_MEASURE:
                return {op[2]}
            if op[0] == OP_MEASURE_LAYER:
                return set(op[2].tolist())
            return set()

        task = moderate_task(SamplerSpec(kind="split", levels=rounds),
                             code=CodeSpec("xxzz", (distance, distance)),
                             backend="frames", rounds=rounds)
        experiment, _, _, program, _, _ = _task_context(task)
        points = split_points(program, experiment, rounds)
        assert len(points) == rounds - 1
        ops = [op for op, _ in frames_oracle.decode(program)]
        for op_index, rounds_done in points:
            assert ops[op_index - 1][0] in (OP_MEASURE, OP_MEASURE_LAYER)
            round_cbits = {int(c) for table in (
                experiment.z_syndrome_cbits, experiment.x_syndrome_cbits)
                for c in table[rounds_done - 1]}
            before = set().union(*map(measured, ops[:op_index]))
            after = set().union(*map(measured, ops[op_index:]))
            assert round_cbits <= before and not round_cbits & after

    def test_split_requires_frame_backend(self):
        task = moderate_task(SamplerSpec(kind="split"), backend="tableau")
        with pytest.raises(ValueError, match="frame backend"):
            run_task(task)

    def test_split_never_early_stops(self):
        """Correlated clone lanes make split CIs optimistic, so the
        adaptive policy must run split points to their full budget."""
        policy = AdaptivePolicy(rel_halfwidth=0.5, min_shots=512,
                                min_errors=1)
        task = moderate_task(SamplerSpec(kind="split", levels=1),
                             backend="frames", shots=4096,
                             intrinsic_p=0.02)
        r = run_task(task, adaptive=policy)
        assert r.shots == 4096
        # ...while an equally loose tilt run does stop early
        tilt = moderate_task(SamplerSpec(kind="tilt", tilt=2.0),
                             shots=4096, intrinsic_p=0.02)
        assert run_task(tilt, adaptive=policy).shots < 4096


# ----------------------------------------------------------------------
# Determinism contracts for weighted records
# ----------------------------------------------------------------------
class TestWeightedDeterminism:
    def _campaign(self):
        return Campaign([
            moderate_task(SamplerSpec(kind="tilt", tilt=4.0),
                          shots=3072, seed=0),
            moderate_task(SamplerSpec(kind="split", levels=1),
                          backend="frames", shots=2048, seed=0),
        ], root_seed=99)

    #: ``run_task(...).payload`` of five weighted frames points,
    #: recorded at the commit before depolarize draws were hoisted per
    #: run (PR 15; linux x86-64, numpy 2.4): counts *and* the four
    #: weight moments.  Both executors draw every site's rows where it
    #: stands and keep the per-site / per-layer LLR summation order, and
    #: split segments are op ranges of the one stream, so every float
    #: must come out the same.
    RECORDED = {
        "d3_tilt": (dict(code=CodeSpec("xxzz", (3, 3)), intrinsic_p=0.004,
                         rounds=2, readout="data", seed=7,
                         sampler=SamplerSpec(kind="tilt", tilt=4.0)),
                    (1024, 75, 208, 180, 1022.359419868468,
                     3028.7806549854104, 5.116771203548183,
                     0.9470961926629011)),
        "d3_split": (dict(code=CodeSpec("xxzz", (3, 3)), intrinsic_p=0.004,
                          rounds=3, readout="data", seed=7,
                          sampler=SamplerSpec(kind="split", levels=2)),
                     (1024, 21, 86, 97, 1018.4673941135406,
                      1746.5639694507538, 16.157442569732666,
                      25.134639360261417)),
        "d5_tilt": (dict(code=CodeSpec("xxzz", (5, 5)), intrinsic_p=0.002,
                         rounds=3, seed=11,
                         sampler=SamplerSpec(kind="tilt", tilt=3.0)),
                    (1024, 156, 196, 174, 1155.1081669392515,
                     5872.1187387763675, 53.562272453960475,
                     86.0139120773766)),
        "d5_split": (dict(code=CodeSpec("xxzz", (5, 5)), intrinsic_p=0.002,
                          rounds=4, seed=11,
                          sampler=SamplerSpec(kind="split", levels=3)),
                     (1024, 107, 164, 105, 739.641384072462,
                      49080.87563029974, 8.974469813399931,
                      24.848739938066554)),
        "d3_strike_tilt": (dict(code=CodeSpec("xxzz", (3, 3)),
                                intrinsic_p=0.004, rounds=3, seed=13,
                                fault=FaultSpec(kind="radiation",
                                                root_qubit=4, time_index=1),
                                sampler=SamplerSpec(kind="tilt", tilt=4.0)),
                           (1024, 359, 342, 245, 1033.9545233746321,
                            5096.702895902472, 270.14642439601505,
                            1029.4570752402706)),
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_payloads_match_recorded(self, name):
        spec, payload = self.RECORDED[name]
        task = InjectionTask(shots=1024, backend="frames", **spec)
        assert run_task(task).payload == payload

    @pytest.mark.parametrize("name", ["d3_strike_tilt", "d5_split"])
    def test_each_executor_samples_the_recorded_payload(self, name,
                                                        executor):
        """Tilted programs and split segments run on the native op loop
        like plain ones, and on its oracle, the numpy executor: one
        payload, every block counted."""
        spec, payload = self.RECORDED[name]
        task = InjectionTask(shots=1024, backend="frames", **spec)
        blocks = obs.counter("frames.blocks")
        before = blocks.value
        assert run_task(task).payload == payload
        assert blocks.value - before == 2

    def test_workers_bit_identical_weighted(self):
        """workers=1|2|4 must agree on counts AND weight moments."""
        serial = self._campaign().run(workers=1).payloads()
        assert self._campaign().run(workers=2).payloads() == serial
        assert self._campaign().run(workers=4).payloads() == serial

    def test_chunk_size_invariance(self):
        t = moderate_task(SamplerSpec(kind="tilt", tilt=4.0), shots=3072)
        assert run_task(t, chunk_shots=SIM_BLOCK).payload == \
            run_task(t, chunk_shots=4 * SIM_BLOCK).payload

    def test_store_resume_weighted(self, tmp_path):
        t = moderate_task(SamplerSpec(kind="tilt", tilt=4.0), shots=2048)
        full = run_task(t).payload
        store = CampaignStore(tmp_path / "w.jsonl")
        key = task_key(t)
        for chunk in list(iter_task_chunks(t, chunk_shots=SIM_BLOCK))[:2]:
            store.append_chunk(key, chunk)
        store.close()
        reloaded = CampaignStore(tmp_path / "w.jsonl")
        prior = reloaded.partial(key)
        assert prior[0] == 2 * SIM_BLOCK and prior[6] is not None
        assert run_task(t, prior=prior).payload == full

    def test_adaptive_weighted_stop_worker_invariant(self):
        def camp():
            return Campaign([moderate_task(
                SamplerSpec(kind="tilt", tilt=4.0), shots=16384,
                intrinsic_p=0.01, seed=0)], root_seed=3)

        policy = AdaptivePolicy(rel_halfwidth=0.25)
        serial = camp().run(workers=1, adaptive=policy).payloads()
        par = camp().run(workers=4, adaptive=policy).payloads()
        assert serial == par
        assert serial[0][0] < 16384  # the policy actually stopped early

    def test_chunk_row_roundtrip_with_weights(self):
        chunk = ChunkResult(start=512, shots=1024, errors=3,
                            raw_errors=4, corrections_applied=5,
                            elapsed_s=0.25,
                            block_weights=((512.0, 510.0, 1.5, 0.75),
                                           (511.0, 509.0, 0.5, 0.25)))
        row = json.loads(json.dumps(chunk.to_row()))
        back = ChunkResult.from_row(row)
        assert back == chunk
        assert back.weight_stats.wsum == 1023.0

    def test_mc_chunk_rows_stay_legacy_shaped(self):
        chunk = ChunkResult(start=0, shots=512, errors=1, raw_errors=1,
                            corrections_applied=1)
        assert "weights" not in chunk.to_row()
        assert chunk.weight_stats.wsum == 512.0

    def test_done_record_roundtrips_weights(self, tmp_path):
        t = moderate_task(SamplerSpec(kind="tilt", tilt=4.0), shots=1024)
        result = run_task(t)
        store = CampaignStore(tmp_path / "d.jsonl")
        store.mark_done(task_key(t), result)
        store.close()
        back = CampaignStore(tmp_path / "d.jsonl").result_for(t)
        assert back.weights == result.weights
        assert back.logical_error_rate == result.logical_error_rate


# ----------------------------------------------------------------------
# Auto-tilt pilot
# ----------------------------------------------------------------------
class TestPilot:
    def test_resolution_is_deterministic(self):
        from repro.rare.pilot import resolve_tilt

        task = moderate_task(
            SamplerSpec(kind="tilt", tilt=0.0, pilot_shots=512),
            intrinsic_p=0.002, shots=1024, seed=13)
        experiment, decoder, noise, program, _, _ = _task_context(
            dataclasses.replace(task, sampler=SamplerSpec(
                kind="tilt", tilt=2.0)))
        a = resolve_tilt(task, experiment, decoder, noise, program)
        b = resolve_tilt(task, experiment, decoder, noise, program)
        assert a == b and a.tilt >= 1.0 and not a.auto_tilt

    def test_choose_tilt_prefers_qualified_minimum(self):
        from repro.rare.pilot import PilotRung, choose_tilt

        def rung(tilt, errors, var_scale):
            w = np.full(1024, 1.0)
            e = np.zeros(1024, dtype=bool)
            e[:errors] = True
            w[:errors] = var_scale
            return PilotRung(tilt=tilt, shots=1024, errors=errors,
                             stats=WeightStats.from_weights(w, e))

        rungs = [rung(1.0, 0, 1.0), rung(4.0, 8, 0.5),
                 rung(8.0, 20, 0.05)]
        assert choose_tilt(rungs, 0.2) == 8.0
        # nothing qualified -> deepest rung
        assert choose_tilt([rung(2.0, 0, 1.0), rung(4.0, 1, 1.0)],
                           0.2) == 4.0

    def test_auto_tilt_runs_end_to_end(self):
        task = moderate_task(
            SamplerSpec(kind="tilt", tilt=0.0, pilot_shots=512),
            intrinsic_p=0.002, shots=1024, seed=13)
        r = run_task(task)
        assert r.weighted and r.shots == 1024

    def test_campaign_pins_auto_tilt_in_parent(self):
        """_seeded resolves auto-tilt before dispatch: every task the
        scheduler (and the store key) sees carries a concrete tilt."""
        task = moderate_task(
            SamplerSpec(kind="tilt", tilt=0.0, pilot_shots=512),
            intrinsic_p=0.002, shots=1024, seed=13)
        campaign = Campaign([task])
        seeded = campaign._seeded()
        assert not seeded[0].sampler.auto_tilt
        assert seeded[0].sampler.tilt >= 1.0
        # and the pinned tilt matches what lazy resolution would pick
        from repro.injection.campaign import _resolved_sampler

        assert seeded[0].sampler == _resolved_sampler(task)


# ----------------------------------------------------------------------
# Sweep-spec integration + did-you-mean (satellite)
# ----------------------------------------------------------------------
class TestSweepIntegration:
    BASE = {"codes": [["xxzz", [3, 3]]], "p_values": [0.004],
            "shots": 1024}

    def test_sampler_key_threads_through(self):
        spec = dict(self.BASE, sampler="tilt:4")
        campaign = build_sweep(spec)
        assert campaign.tasks[0].sampler == \
            SamplerSpec(kind="tilt", tilt=4.0)
        spec = dict(self.BASE, sampler={"kind": "split", "levels": 3})
        assert build_sweep(spec).tasks[0].sampler.levels == 3

    def test_unknown_key_suggests_fix(self):
        with pytest.raises(ValueError, match=r"did you mean 'sampler'\?"):
            build_sweep(dict(self.BASE, sampelr="tilt"))
        with pytest.raises(ValueError, match=r"did you mean 'workers'\?"):
            build_sweep(dict(self.BASE, worker=4))

    def test_unknown_key_without_match_lists_keys(self):
        with pytest.raises(ValueError, match="recognised"):
            build_sweep(dict(self.BASE, zzzqqq=1))
