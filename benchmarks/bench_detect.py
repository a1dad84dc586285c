"""Streaming-detection benchmarks: packed-syndrome throughput and the
overhead the detector adds to the frame backend's hot loop.

The detection path is designed to ride along with campaign sampling:
the frame backend already produces bit-packed record words, and the
detector reduces them with word popcounts and bit-sliced counters —
never unpacking to per-shot uint8.  The acceptance bar for the PR
introducing the subsystem: detection adds < 10% to frame-backend shot
throughput on the d=5 rotated-code burst scenario.
"""

import time

import numpy as np
import pytest

from repro.codes import XXZZCode, build_memory_experiment
from repro.detect import (
    BurstAdaptiveDecoder,
    DetectorConfig,
    PackedSyndromes,
    StreamingDetector,
    estimate_cluster,
)
from repro.frames import FrameSimulator, compile_frame_program
from repro.noise import DepolarizingNoise, NoiseModel, RadiationEvent

#: Detection-scale batch: one campaign-sized slab of shots.
SHOTS = 10_000
ROUNDS = 10
STRIKE_ROUND = 4


@pytest.fixture(scope="module")
def burst_setup():
    """d=5 rotated memory + centre strike, compiled for the frame backend."""
    code = XXZZCode(5, 5)
    experiment = build_memory_experiment(code, rounds=ROUNDS)
    root = code.lattice.data_index(2, 2)
    event = RadiationEvent.from_positions(root, code.qubit_positions())
    mpr = code.measures_per_round
    noise = NoiseModel([event.burst(STRIKE_ROUND, mpr),
                        DepolarizingNoise(0.005)])
    program = compile_frame_program(experiment.circuit, noise, rng=1)
    return code, experiment, program


@pytest.fixture(scope="module")
def record_words(burst_setup):
    _, experiment, program = burst_setup
    sim = FrameSimulator(experiment.circuit.num_qubits, SHOTS, rng=2)
    return sim.run_packed(program)


def test_detect_packed_throughput(benchmark, burst_setup, record_words):
    """Throughput: packed stream build + CUSUM detection, 10^4 shots."""
    _, experiment, _ = burst_setup
    detector = StreamingDetector(DetectorConfig())
    benchmark.extra_info["shots"] = SHOTS

    def run():
        packed = PackedSyndromes.from_record_words(record_words, experiment,
                                                   SHOTS)
        return detector.detect(packed)

    report = benchmark(run)
    assert report.flag_rate > 0.5  # full-intensity strike: mostly flagged


def test_detect_cluster_estimation(benchmark, burst_setup, record_words):
    """Strike localisation on top of a finished detection pass."""
    code, experiment, _ = burst_setup
    packed = PackedSyndromes.from_record_words(record_words, experiment,
                                               SHOTS)
    report = StreamingDetector(DetectorConfig()).detect(packed)
    benchmark.extra_info["shots"] = SHOTS

    cluster = benchmark(lambda: estimate_cluster(packed, report, code))
    assert cluster is not None


def test_detect_overhead_vs_frames(benchmark, burst_setup, record_words,
                                   capsys):
    """Acceptance: detection adds < 10% to frame-backend throughput.

    Compares the cost of the packed detection pass (stream build +
    CUSUM, on fixed record words) against the frame sampling loop a
    static campaign block already pays (simulate + unpack records), on
    the d=5 burst program.  Ratioing two independently best-of-N
    timings is robust to background load, unlike a paired A/B loop.
    """
    _, experiment, program = burst_setup
    n = experiment.circuit.num_qubits
    detector = StreamingDetector(DetectorConfig())
    from repro.frames import unpack_words

    def best_of(f, reps=7):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            f()
            times.append(time.perf_counter() - t0)
        return min(times)

    def sample():
        sim = FrameSimulator(n, SHOTS, rng=3)
        words = sim.run_packed(program)
        return np.ascontiguousarray(unpack_words(words, SHOTS).T)

    def detect_pass():
        packed = PackedSyndromes.from_record_words(record_words, experiment,
                                                   SHOTS)
        return detector.detect(packed)

    t_sample = best_of(sample)
    t_detect = best_of(detect_pass)
    overhead = t_detect / t_sample
    benchmark.extra_info["shots"] = SHOTS
    benchmark.extra_info["sample_s"] = t_sample
    benchmark.extra_info["detect_pass_s"] = t_detect
    benchmark.extra_info["overhead_frac"] = overhead
    benchmark.pedantic(detect_pass, rounds=1, iterations=1)
    with capsys.disabled():
        print(f"\n[detect overhead] sampling {SHOTS / t_sample:,.0f} "
              f"shots/s, detection pass {SHOTS / t_detect:,.0f} shots/s "
              f"({overhead * 100:.1f}% of the sampling cost)")
    assert overhead < 0.10


def test_detect_adaptive_decode_smoke(burst_setup, record_words):
    """The burst-adaptive decoder consumes packed words end to end."""
    from repro.decoders import SyndromeBatch, decoder_for

    _, experiment, _ = burst_setup
    batch = SyndromeBatch.from_record_words(record_words[:, :8], 512)
    dec = BurstAdaptiveDecoder(decoder_for(experiment, "union-find"),
                               policy="reweight")
    result = dec.decode_batch(experiment, batch)
    assert result.num_shots == 512
    assert dec.last_report is not None
