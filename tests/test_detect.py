"""Tests for repro.detect — packed streams, CUSUM detection, strike
localisation, burst-adaptive recovery, and the campaign/CLI threading."""

import hashlib
import json

import numpy as np
import pytest

from repro.codes import XXZZCode, build_memory_experiment
from repro.decoders import (DetectorGraph, ERASED_WEIGHT, SyndromeBatch,
                            decoder_for)
from repro.detect import (
    BurstAdaptiveDecoder,
    DetectorConfig,
    PackedSyndromes,
    RECOVERY_POLICIES,
    RecoveryPolicy,
    StreamingDetector,
    estimate_cluster,
    pack_shot_mask,
    reweight_graph,
    roc_auc,
)
from repro.frames import FrameSimulator, compile_frame_program, unpack_words
from repro.frames.packing import column_counts, pack_bool_rows, popcount_words
from repro.injection.campaign import run_task
from repro.injection.spec import CodeSpec, FaultSpec, InjectionTask
from repro.injection.store import task_key
from repro.noise import (
    DepolarizingNoise,
    NoiseModel,
    RadiationBurst,
    RadiationEvent,
    run_batch_noisy,
)


# ----------------------------------------------------------------------
# Packed reductions
# ----------------------------------------------------------------------
class TestPackedKernels:
    def test_popcount_words_matches_python(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2 ** 63, size=(3, 5), dtype=np.uint64)
        expect = np.vectorize(lambda w: bin(int(w)).count("1"))(words)
        np.testing.assert_array_equal(popcount_words(words), expect)

    def test_column_counts_matches_unpacked_sum(self):
        rng = np.random.default_rng(1)
        bits = rng.random((13, 170)) < 0.3
        planes = pack_bool_rows(bits)
        np.testing.assert_array_equal(
            column_counts(planes, 170), bits.sum(axis=0))

    def test_pack_bool_rows_roundtrip(self):
        rng = np.random.default_rng(2)
        bits = rng.random((4, 77)) < 0.5
        words = pack_bool_rows(bits)
        back = unpack_words(words, 77)
        np.testing.assert_array_equal(back.astype(bool), bits)


# ----------------------------------------------------------------------
# Shared strike fixture: d=5 rotated memory, centre strike at round 4
# ----------------------------------------------------------------------
STRIKE_ROUND = 4
ROUNDS = 10


@pytest.fixture(scope="module")
def strike_setup():
    code = XXZZCode(5, 5)
    experiment = build_memory_experiment(code, rounds=ROUNDS)
    root = code.lattice.data_index(2, 2)
    event = RadiationEvent.from_positions(root, code.qubit_positions())
    return code, experiment, event, root, code.measures_per_round


def _frame_words(experiment, noise, shots, seed):
    program = compile_frame_program(experiment.circuit, noise, rng=seed)
    sim = FrameSimulator(experiment.circuit.num_qubits, shots, rng=seed + 1)
    return sim.run_packed(program)


@pytest.fixture(scope="module")
def struck_words(strike_setup):
    _, experiment, event, _, mpr = strike_setup
    noise = NoiseModel([event.burst(STRIKE_ROUND, mpr),
                        DepolarizingNoise(0.005)])
    return _frame_words(experiment, noise, 1024, seed=5)


@pytest.fixture(scope="module")
def clean_words(strike_setup):
    _, experiment, _, _, _ = strike_setup
    noise = NoiseModel([DepolarizingNoise(0.005)])
    return _frame_words(experiment, noise, 1024, seed=6)


# ----------------------------------------------------------------------
# Packed syndrome streams
# ----------------------------------------------------------------------
class TestPackedSyndromes:
    def test_frame_native_equals_records_path(self, strike_setup,
                                              struck_words):
        _, experiment, _, _, _ = strike_setup
        records = np.ascontiguousarray(unpack_words(struck_words, 1024).T)
        a = PackedSyndromes.from_record_words(struck_words, experiment, 1024)
        rows_in = SyndromeBatch.from_records(records)
        b = PackedSyndromes.from_record_words(rows_in.record_words,
                                              experiment, rows_in.batch_size)
        np.testing.assert_array_equal(a.det, b.det)
        assert a.num_primary == b.num_primary

    def test_primary_part_matches_detector_graph(self, strike_setup,
                                                 struck_words):
        """The packed primary-basis events must agree bit for bit with
        the decoder front-end's detection_events on unpacked records."""
        code, experiment, _, _, _ = strike_setup
        records = np.ascontiguousarray(unpack_words(struck_words, 1024).T)
        graph = DetectorGraph(code, ROUNDS)
        det_ref = graph.detection_events(experiment.syndromes(records))
        packed = PackedSyndromes.from_record_words(struck_words, experiment,
                                                   1024)
        got = np.stack([
            unpack_words(packed.det[r, :packed.num_primary], 1024).T
            for r in range(packed.rounds)], axis=1)
        np.testing.assert_array_equal(got, det_ref)

    def test_dual_part_round0_suppressed(self, strike_setup, struck_words):
        _, experiment, _, _, _ = strike_setup
        packed = PackedSyndromes.from_record_words(struck_words, experiment,
                                                   1024)
        assert packed.num_plaquettes > packed.num_primary
        assert not packed.det[0, packed.num_primary:].any()

    def test_round_event_counts_match_popcount(self, strike_setup,
                                               struck_words):
        _, experiment, _, _, _ = strike_setup
        packed = PackedSyndromes.from_record_words(struck_words, experiment,
                                                   1024)
        counts = packed.round_event_counts()
        totals = packed.plaquette_event_counts()
        np.testing.assert_array_equal(counts.sum(axis=0),
                                      totals.sum(axis=1))

    def test_shot_mask_restricts_counts(self, strike_setup, struck_words):
        _, experiment, _, _, _ = strike_setup
        packed = PackedSyndromes.from_record_words(struck_words, experiment,
                                                   1024)
        none = pack_shot_mask(np.zeros(1024, dtype=bool))
        assert packed.plaquette_event_counts(shot_mask=none).sum() == 0


# ----------------------------------------------------------------------
# Streaming detection
# ----------------------------------------------------------------------
class TestStreamingDetector:
    def test_strike_detected_clean_mostly_not(self, strike_setup,
                                              struck_words, clean_words):
        _, experiment, _, _, _ = strike_setup
        det = StreamingDetector()
        hit = det.detect(PackedSyndromes.from_record_words(
            struck_words, experiment, 1024))
        clean = det.detect(PackedSyndromes.from_record_words(
            clean_words, experiment, 1024))
        assert hit.flag_rate > 0.9
        assert clean.flag_rate < 0.15
        assert roc_auc(hit.max_scores, clean.max_scores) > 0.95

    def test_latency_and_window(self, strike_setup, struck_words):
        _, experiment, _, _, _ = strike_setup
        report = StreamingDetector().detect(
            PackedSyndromes.from_record_words(struck_words, experiment,
                                              1024))
        timely = report.flagged & (report.flag_round >= STRIKE_ROUND)
        lats = report.flag_round[timely] - STRIKE_ROUND
        assert np.median(lats) <= 2
        start, end = report.active_rounds
        assert start <= STRIKE_ROUND + 1
        assert end > start

    def test_explicit_baseline_honoured(self, strike_setup, struck_words):
        _, experiment, _, _, _ = strike_setup
        packed = PackedSyndromes.from_record_words(struck_words, experiment,
                                                   1024)
        loose = StreamingDetector(DetectorConfig(baseline=50.0)).detect(
            packed)
        assert loose.num_flagged == 0  # absurd baseline: nothing anomalous
        assert loose.baseline == 50.0

    def test_roc_helpers(self):
        assert roc_auc(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0
        assert roc_auc(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 0.5


# ----------------------------------------------------------------------
# Localisation
# ----------------------------------------------------------------------
class TestClusterEstimation:
    def test_epicenter_near_root(self, strike_setup, struck_words):
        code, experiment, _, root, _ = strike_setup
        packed = PackedSyndromes.from_record_words(struck_words, experiment,
                                                   1024)
        report = StreamingDetector().detect(packed)
        cluster = estimate_cluster(packed, report, code)
        assert cluster is not None
        positions = code.qubit_positions()
        anc = (list(code.z_ancillas) + list(code.x_ancillas))[
            cluster.epicenter]
        ap, rp = positions[anc], positions[root]
        assert (abs(ap[0] - rp[0]) + abs(ap[1] - rp[1])) / 2.0 <= 2.0
        assert cluster.window[0] <= STRIKE_ROUND + 1
        assert root in cluster.qubits
        assert cluster.radius >= 1
        assert all(p < packed.num_primary
                   for p in cluster.primary_plaquettes)

    def test_no_cluster_without_flags(self, strike_setup, clean_words):
        code, experiment, _, _, _ = strike_setup
        packed = PackedSyndromes.from_record_words(clean_words, experiment,
                                                   1024)
        report = StreamingDetector(
            DetectorConfig(baseline=50.0)).detect(packed)
        assert estimate_cluster(packed, report, code) is None


# ----------------------------------------------------------------------
# Recovery policies
# ----------------------------------------------------------------------
class TestRecovery:
    def test_policy_coercion(self):
        assert RecoveryPolicy.coerce("reweight") is RecoveryPolicy.REWEIGHT
        assert RecoveryPolicy.coerce(RecoveryPolicy.STATIC) \
            is RecoveryPolicy.STATIC
        with pytest.raises(ValueError, match="unknown recovery"):
            RecoveryPolicy.coerce("bogus")
        assert set(RECOVERY_POLICIES) == {"static", "reweight",
                                          "discard_window"}
        # The spec reads the names without importing repro.detect; the
        # enum implements exactly those.
        assert RECOVERY_POLICIES == tuple(p.value for p in RecoveryPolicy)

    def test_reweight_graph_erases_blast_volume(self, strike_setup,
                                                struck_words):
        code, experiment, _, _, _ = strike_setup
        packed = PackedSyndromes.from_record_words(struck_words, experiment,
                                                   1024)
        report = StreamingDetector().detect(packed)
        cluster = estimate_cluster(packed, report, code)
        graph = DetectorGraph(code, ROUNDS)
        rw = reweight_graph(graph, cluster)
        erased = [e for e in rw.edges if e.weight <= ERASED_WEIGHT]
        assert erased
        start, end = cluster.window
        for e in erased:
            u = e.u if e.u != -1 else e.v
            r = u // rw.num_plaquettes
            assert start - 1 <= r < end
        assert not rw.unit_weights
        assert graph.unit_weights  # original untouched

    def test_static_policy_equals_base_decoder(self, strike_setup,
                                               struck_words):
        _, experiment, _, _, _ = strike_setup
        records = np.ascontiguousarray(unpack_words(struck_words, 1024).T)
        base = decoder_for(experiment, "union-find")
        wrapped = BurstAdaptiveDecoder(base, policy="static")
        a = base.decode_batch(experiment, records)
        b = wrapped.decode_batch(
            experiment, SyndromeBatch.from_record_words(struck_words, 1024))
        np.testing.assert_array_equal(a.corrections, b.corrections)
        assert wrapped.last_report is not None

    def test_clean_batch_reweight_falls_back_to_static(self, strike_setup,
                                                       clean_words):
        _, experiment, _, _, _ = strike_setup
        records = np.ascontiguousarray(unpack_words(clean_words, 1024).T)
        base = decoder_for(experiment, "union-find")
        wrapped = BurstAdaptiveDecoder(
            base, policy="reweight",
            config=DetectorConfig(baseline=50.0))  # nothing flags
        a = base.decode_batch(experiment, records)
        b = wrapped.decode_batch(
            experiment, SyndromeBatch.from_record_words(clean_words, 1024))
        np.testing.assert_array_equal(a.corrections, b.corrections)

    def test_reweight_estimates_strike_parameters(self, strike_setup,
                                                  struck_words):
        _, experiment, _, root, _ = strike_setup
        base = decoder_for(experiment, "union-find")
        wrapped = BurstAdaptiveDecoder(base, policy="reweight")
        wrapped.decode_batch(
            experiment, SyndromeBatch.from_record_words(struck_words, 1024))
        est = wrapped.last_estimate
        assert est is not None
        rp = experiment.code.qubit_positions()[root]
        err = (abs(est.position[0] - rp[0])
               + abs(est.position[1] - rp[1])) / 2.0
        assert err <= 1.5
        assert est.onset_round in (STRIKE_ROUND, STRIKE_ROUND + 1)
        assert 0.05 <= est.amplitude <= 1.0

    def test_discard_window_changes_flagged_decodes_only(self, strike_setup,
                                                         struck_words):
        _, experiment, _, _, _ = strike_setup
        batch = SyndromeBatch.from_record_words(struck_words, 1024)
        base = decoder_for(experiment, "union-find")
        static = BurstAdaptiveDecoder(base, policy="static")
        discard = BurstAdaptiveDecoder(base, policy="discard_window")
        a = static.decode_batch(experiment, batch)
        b = discard.decode_batch(experiment, batch)
        clean = ~discard.last_report.flagged
        np.testing.assert_array_equal(a.corrections[clean],
                                      b.corrections[clean])
        assert (a.corrections != b.corrections).any()

    @pytest.mark.slow
    def test_reweight_beats_static_mwpm_paired(self, strike_setup):
        """Acceptance direction: on the seeded half-intensity strike the
        model-reweighted MWPM decode makes strictly fewer logical errors
        than static on the *same* records (paired comparison)."""
        _, experiment, event, _, mpr = strike_setup
        noise = NoiseModel([event.burst(STRIKE_ROUND, mpr, scale=0.5),
                            DepolarizingNoise(0.005)])
        batch = SyndromeBatch.from_record_words(
            _frame_words(experiment, noise, 2048, seed=7), 2048)
        base = decoder_for(experiment, "mwpm")
        errs = {}
        for policy in ("static", "reweight"):
            dec = BurstAdaptiveDecoder(base, policy=policy)
            errs[policy] = dec.decode_batch(experiment, batch).num_errors
        assert errs["reweight"] < errs["static"]

    #: sha256[:16] of ``np.packbits`` of (decoded, corrections) for the
    #: first 130 shots of ``struck_words`` (123 flagged, 7 clean), as the
    #: commit before the row-domain pipeline was deleted returned them.
    PARENT = {
        ("mwpm", "ancilla", "static"):
            ("a0b14c5e29565763", "f65db49cff7a29ae"),
        ("mwpm", "ancilla", "reweight"):
            ("9fb47d0e429e4f35", "616978529b650e85"),
        ("mwpm", "ancilla", "discard_window"):
            ("9f85fdc676fd2c7a", "8fce048a8285bfbc"),
        ("mwpm", "data", "static"):
            ("fb7d5165bf050fb3", "f6bc635318186028"),
        ("mwpm", "data", "reweight"):
            ("a7e6ae80cdf476ee", "a7e0a1dc1ddaa717"),
        ("mwpm", "data", "discard_window"):
            ("ba49c2f34ec6715d", "7801fd538ed1c8da"),
        ("union-find", "ancilla", "static"):
            ("5dc05c3267d3287c", "10753932d4b4cbdc"),
        ("union-find", "ancilla", "reweight"):
            ("3aa1c90480c0fdd7", "6a40425ce255c672"),
        ("union-find", "ancilla", "discard_window"):
            ("279b68ea8a607f8b", "1488dcdbfae87832"),
        ("union-find", "data", "static"):
            ("e351369d428cbd26", "408362e9961c23b6"),
        ("union-find", "data", "reweight"):
            ("09df1ab1316b1a18", "bc4b599c5e8f0844"),
        ("union-find", "data", "discard_window"):
            ("724bbeb1ce607400", "e36243a4122332b1"),
    }

    @pytest.mark.parametrize("entry", ["rows", "words"])
    @pytest.mark.parametrize("policy", RECOVERY_POLICIES)
    @pytest.mark.parametrize("readout", ["ancilla", "data"])
    @pytest.mark.parametrize("kind", ["mwpm", "union-find"])
    def test_struck_block_decodes_as_parent(self, strike_setup,
                                            struck_words, kind, readout,
                                            policy, entry):
        """Every policy, matcher and readout mode on a struck d=5
        block, entered as rows and as words (whose last word then
        carries 62 other shots as don't-care bits)."""
        _, experiment, _, _, _ = strike_setup
        words = struck_words[:, :3]
        batch = (SyndromeBatch.from_record_words(words, 130)
                 if entry == "words" else np.ascontiguousarray(
                     unpack_words(words, 130).T))
        dec = BurstAdaptiveDecoder(
            decoder_for(experiment, kind, use_final_data=readout == "data"),
            policy=policy)
        res = dec.decode_batch(experiment, batch)
        assert int(dec.last_report.flagged.sum()) == 123

        def digest(bits):
            return hashlib.sha256(np.packbits(bits).tobytes()) \
                .hexdigest()[:16]

        assert (digest(res.decoded), digest(res.corrections)) \
            == self.PARENT[kind, readout, policy]


# ----------------------------------------------------------------------
# RadiationBurst channel
# ----------------------------------------------------------------------
class TestRadiationBurst:
    def _burst(self, strike_round=2, scale=1.0):
        event = RadiationEvent(0, {0: 0, 1: 1, 2: 2}, num_qubits=3)
        return RadiationEvent.burst(event, strike_round, 2, scale=scale)

    def test_round_tracking_and_reset(self):
        from repro.circuits import Circuit

        burst = self._burst(strike_round=1)
        circ = Circuit(3)
        circ.measure(0, 0)
        gates = [circ.gates[0]]
        assert burst.current_probs() is None  # round 0, pre-strike
        for _ in range(2):                    # two measures = one round
            burst.observe(gates[0])
        assert burst.current_round == 1
        probs = burst.current_probs()
        assert probs is not None and probs[0] == 1.0  # T(0) at the root
        burst.begin_run()
        assert burst.current_round == 0
        assert burst.current_probs() is None

    def test_scale_and_validation(self):
        burst = self._burst(strike_round=0, scale=0.25)
        assert burst.current_probs()[0] == pytest.approx(0.25)
        with pytest.raises(ValueError, match="scale"):
            self._burst(scale=1.5)
        with pytest.raises(ValueError, match="strike_round"):
            self._burst(strike_round=-1)

    def test_backends_agree_on_round_profile(self):
        """Tableau and frame backends must show the same burst: flat
        pre-strike event rates, a jump at the strike round."""
        code = XXZZCode(3, 3)
        experiment = build_memory_experiment(code, rounds=6)
        n = experiment.circuit.num_qubits
        event = RadiationEvent(4, {q: abs(q - 4) for q in range(n)},
                               num_qubits=n)
        mpr = len(code.z_ancillas) + len(code.x_ancillas)
        noise = NoiseModel([event.burst(3, mpr), DepolarizingNoise(0.003)])
        graph = DetectorGraph(code, 6)
        profiles = []
        for backend, seed in (("tableau", 3), ("frames", 4)):
            rec = run_batch_noisy(experiment.circuit, noise, 512, rng=seed,
                                  backend=backend)
            det = graph.detection_events(experiment.syndromes(rec))
            profiles.append(det.mean(axis=(0, 2)))
        for prof in profiles:
            assert prof[3] > 3 * prof[:3].max()
        assert abs(profiles[0][3] - profiles[1][3]) < 0.08


# ----------------------------------------------------------------------
# Campaign threading
# ----------------------------------------------------------------------
def _burst_task(policy="reweight", **kw):
    base = dict(code=CodeSpec("xxzz", (3, 3)),
                fault=FaultSpec(kind="radiation", root_qubit=4,
                                strike_round=2, intensity=0.5),
                rounds=6, intrinsic_p=0.005, decoder="union-find",
                backend="frames", recovery=policy, shots=1024, seed=11)
    base.update(kw)
    return InjectionTask(**base)


class TestCampaignThreading:
    def test_recovery_validated(self):
        with pytest.raises(ValueError, match="recovery"):
            _burst_task(policy="bogus")

    def test_strike_round_validated(self):
        with pytest.raises(ValueError, match="strike_round"):
            FaultSpec(kind="erasure", qubits=(1,), strike_round=2)
        with pytest.raises(ValueError, match="intensity"):
            FaultSpec(kind="radiation", strike_round=1, intensity=2.0)

    def test_strike_round_outside_rounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            _burst_task(fault=FaultSpec(kind="radiation", root_qubit=4,
                                        strike_round=9), shots=512)

    def test_counts_invariant_to_chunking(self):
        task = _burst_task()
        a = run_task(task, chunk_shots=512)
        b = run_task(task, chunk_shots=2048)
        assert a.counts == b.counts

    def test_policies_share_sampled_records(self):
        """Same seed, different recovery: raw (pre-decode) error counts
        must match exactly — the policy only changes decoding."""
        res = {p: run_task(_burst_task(policy=p))
               for p in ("static", "reweight", "discard_window")}
        raws = {p: r.raw_errors for p, r in res.items()}
        assert len(set(raws.values())) == 1
        assert all(r.shots == 1024 for r in res.values())

    def test_recovery_shapes_task_key(self):
        keys = {task_key(_burst_task(policy=p))
                for p in ("static", "reweight")}
        assert len(keys) == 2
        keys = {task_key(_burst_task(
            fault=FaultSpec(kind="radiation", root_qubit=4,
                            strike_round=s))) for s in (1, 2)}
        assert len(keys) == 2

    def test_tableau_backend_recovery_path(self):
        res = run_task(_burst_task(backend="tableau", shots=512))
        assert res.shots == 512


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestDetectCli:
    def test_detect_smoke(self, capsys):
        from repro.cli import main

        assert main(["detect", "--shots", "256", "--distance", "3",
                     "--rounds", "6", "--strike-round", "2",
                     "--decoder", "union-find", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "auc" in out
        assert "reweight" in out and "discard_window" in out

    def test_detect_csv(self, capsys, tmp_path):
        from repro.cli import main

        csv_path = tmp_path / "det.csv"
        assert main(["detect", "--shots", "128", "--distance", "3",
                     "--rounds", "6", "--strike-round", "2",
                     "--decoder", "union-find", "--workers", "1",
                     "--csv", str(csv_path)]) == 0
        assert "auc" in csv_path.read_text()
        assert "ler" in (tmp_path / "det.policies.csv").read_text()

    def test_campaign_recovery_flag(self, capsys, tmp_path):
        from repro.cli import main

        spec = {"codes": [["xxzz", [3, 3]]],
                "faults": [{"kind": "radiation", "root_qubit": 4,
                            "strike_round": 2}],
                "p_values": [0.005], "rounds": 6, "shots": 512,
                "decoder": "union-find", "backend": "frames",
                "root_seed": 3}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        csv_path = tmp_path / "out.csv"
        assert main(["campaign", str(path), "--workers", "1",
                     "--recovery", "reweight",
                     "--csv", str(csv_path)]) == 0
        assert "reweight" in csv_path.read_text()
