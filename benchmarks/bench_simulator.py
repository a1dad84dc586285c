"""Core-simulator benchmarks + the batch-vs-single ablation.

The batched tableau simulator is the exact backend: campaigns reach it
when a fault has no exact frame lowering (a reset on an entangled XXZZ
data qubit — the paper's Fig. 5 strike traffic) and tier-1 uses it as
the frames oracle.  Campaigns run it natively (``_kernel.c``); its
test oracle, the numpy ``BatchTableauSimulator`` of
``tests/oracles/tableau.py``, is the reference.  This bench records
both on those shapes and quantifies the
vectorization speedup over the single-shot reference implementation
(DESIGN.md §3).
"""

import time

import numpy as np
import pytest
from conftest import bench_bar, bench_report

from repro.arch import mesh
from repro.codes import XXZZCode, build_memory_experiment
from repro.noise import (
    DepolarizingNoise,
    NoiseModel,
    RadiationEvent,
    run_batch_noisy,
)
from repro.transpile import transpile

from oracles.chp import TableauSimulator
from oracles.circuits import random_clifford_circuit
from oracles.tableau import BatchTableauSimulator, numpy_walk

BATCH = 1024


@pytest.fixture(scope="module")
def xxzz_circuit():
    return build_memory_experiment(XXZZCode(3, 3)).circuit


@pytest.fixture(scope="module")
def random_circuit():
    return random_clifford_circuit(24, 400, rng=3, measure_prob=0.05)


def test_batch_memory_circuit(benchmark, xxzz_circuit):
    """Throughput: 1024 noiseless shots of the xxzz-(3,3) memory."""
    benchmark.extra_info["shots"] = BATCH

    def run():
        return BatchTableauSimulator(xxzz_circuit.num_qubits, BATCH,
                                     rng=1).run(xxzz_circuit)

    records = benchmark(run)
    assert records.shape[0] == BATCH


def _throughput(benchmark, capsys, label, run, shots, parent_sps, factor):
    """Record ``shots_per_s`` (min of 5 own-clock rounds, so the bar
    also holds under ``--benchmark-disable``) and hold it at ``factor``
    times the parent kernel's rate (the parent's own rate when LAX)."""
    run()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    benchmark(run)
    sps = shots / min(times)
    bench_report(benchmark, capsys,
                 f"\n[tableau] {label}: {shots} shots in "
                 f"{1e3 * min(times):.1f} ms ({sps:,.0f} shots/s, "
                 f"{sps / parent_sps:.1f}x the byte-per-bit kernel)",
                 shots=shots, shots_per_s=sps)
    bar = bench_bar(factor, 1.0) * parent_sps
    assert sps >= bar, f"{label}: {sps:,.0f} shots/s < {bar:,.0f}"


def test_batch_strike_fig5_shape(benchmark, capsys):
    """The shape `fig5_grid`'s fallback half runs: XXZZ (3,3) routed
    onto mesh 5x4, radiation at root 2, t = 0, intrinsic p = 1e-3, one
    512-shot block on the tableau — on the native executor
    (``_kernel.c``, from the point's bound program, as the campaign
    runs it) and on the oracle's numpy walk, same host, same
    records.  Reports ms per block.

    Native must hold >= 5x numpy.  The earlier byte-per-bit
    ``(B, 2n, n)`` numpy kernel ran this at 3 400 shots/s on a 2-core
    host; the row-packed numpy walk must still hold >= 2x that
    (measured 12 800).
    """
    from repro.frames import compile_frame_program

    arch = mesh(5, 4)
    circuit = transpile(build_memory_experiment(XXZZCode(3, 3)).circuit,
                        arch).circuit
    event = RadiationEvent(2, arch.distances_from(2),
                           num_qubits=arch.num_qubits)
    noise = NoiseModel([event.channel(0), DepolarizingNoise(1e-3)])
    program = compile_frame_program(circuit, noise, rng=1)

    def block():
        return run_batch_noisy(circuit, noise, 512, rng=5,
                               backend="tableau", program=program)

    def numpy_block():
        return numpy_walk(circuit, noise, 512, np.random.default_rng(5))

    def best_ms(run, rounds):
        run()
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        return 1e3 * min(times)

    native_ms = best_ms(block, 9)
    native = benchmark(block)
    numpy_ms = best_ms(numpy_block, 5)
    assert np.array_equal(numpy_block(), native)
    ratio = numpy_ms / native_ms
    numpy_sps = 512 / (numpy_ms / 1e3)
    bench_report(benchmark, capsys,
                 f"\n[tableau] fig5 strike block: native {native_ms:.2f} "
                 f"ms, numpy {numpy_ms:.1f} ms per 512-shot block "
                 f"({ratio:.1f}x; numpy {numpy_sps:,.0f} shots/s, "
                 f"{numpy_sps / 3_400:.1f}x the byte-per-bit kernel)",
                 native_ms=native_ms, numpy_ms=numpy_ms, shots=512,
                 shots_per_s=512 / (native_ms / 1e3))
    bar = bench_bar(5, 2)
    assert ratio >= bar, f"native only {ratio:.1f}x numpy (< {bar}x)"
    numpy_bar = bench_bar(2.0, 1.0) * 3_400
    assert numpy_sps >= numpy_bar, \
        f"numpy walk: {numpy_sps:,.0f} shots/s < {numpy_bar:,.0f}"


def test_batch_d5_noiseless(benchmark, capsys):
    """Noiseless XXZZ (5,5) memory (49 qubits), 512 shots: gate and
    measurement kernels with no channel in the way.

    The byte-per-bit kernel (PR 20) ran this at 620 shots/s on the
    2-core sandbox; the row-packed kernel must hold >= 4x that
    (measured 6 000).
    """
    circuit = build_memory_experiment(XXZZCode(5, 5)).circuit
    _throughput(
        benchmark, capsys, "xxzz-(5,5) noiseless",
        lambda: BatchTableauSimulator(circuit.num_qubits, 512,
                                      rng=1).run(circuit),
        shots=512, parent_sps=620, factor=4.0)


def test_batch_random_clifford(benchmark, random_circuit):
    """Throughput: 1024 shots of a 24-qubit 400-gate random circuit."""
    benchmark.extra_info["shots"] = BATCH

    def run():
        return BatchTableauSimulator(24, BATCH, rng=2).run(random_circuit)

    benchmark(run)


def test_single_shot_reference(benchmark, xxzz_circuit):
    """Single-shot baseline for the vectorization ablation."""

    def run():
        return TableauSimulator(xxzz_circuit.num_qubits, rng=3).run(
            xxzz_circuit)

    benchmark(run)


def test_batch_vs_single_speedup(benchmark, xxzz_circuit, capsys):
    """Ablation: measured speedup of the vectorized batch (prints row)."""
    import time

    t0 = time.perf_counter()
    benchmark.pedantic(
        lambda: BatchTableauSimulator(xxzz_circuit.num_qubits, BATCH,
                                      rng=1).run(xxzz_circuit),
        rounds=1, iterations=1)
    batch_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for s in range(8):
        TableauSimulator(xxzz_circuit.num_qubits, rng=s).run(xxzz_circuit)
    single_s = (time.perf_counter() - t0) / 8 * BATCH
    with capsys.disabled():
        print(f"\n[ablation] batch {BATCH} shots: {batch_s:.3f}s; "
              f"single-shot extrapolated: {single_s:.1f}s; "
              f"speedup ~{single_s / batch_s:.0f}x")
    assert single_s > batch_s


def test_noisy_execution(benchmark, xxzz_circuit):
    """Noisy batch-tableau execution (depolarizing p=1%) — the campaign
    inner loop before the frame backend (bench_frames.py covers the
    successor); pinned to the tableau backend on purpose."""
    noise = NoiseModel([DepolarizingNoise(0.01)])
    benchmark.extra_info["shots"] = 512

    def run():
        return run_batch_noisy(xxzz_circuit, noise, 512, rng=5,
                               backend="tableau")

    benchmark(run)


def test_measurement_heavy_circuit(benchmark):
    """Stress the vectorized measurement path (random + deterministic)."""
    circ = random_clifford_circuit(16, 300, rng=9, measure_prob=0.3,
                                   reset_prob=0.1)
    benchmark.extra_info["shots"] = 512

    def run():
        return BatchTableauSimulator(16, 512, rng=4).run(circ)

    benchmark(run)
