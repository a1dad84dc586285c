"""The native tableau executor against its oracle, the numpy walk.

``run_batch_noisy(..., backend="tableau")`` runs on ``_kernel.c``'s
``repro_tableau_run``; its oracle is ``oracles.tableau.numpy_walk``,
the site tables interpreted on a numpy batched tableau.  Both must
give equal records, bitwise-equal log-weights and leave the caller's
generator in one state, for any circuit, noise, batch size, bit
generator and tilt.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits import Circuit
from repro.frames import compile_frame_program
from repro.injection import (ArchSpec, CodeSpec, FaultSpec, InjectionTask,
                             run_task)
from repro.injection.campaign import _structure_cell, _task_context
from repro.logical import LogicalFaultChannel
from repro.noise import (
    DepolarizingNoise,
    ErasureChannel,
    NoiseModel,
    RadiationEvent,
    run_batch_noisy,
)
from repro.rare.sampler import SamplerSpec

from oracles.circuits import random_clifford_circuit
from oracles.tableau import numpy_walk

BATCHES = (1, 3, 4, 5, 63, 64, 65, 512, 1000)
GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox)


def state(rng):
    """A bit generator's state, comparable (MT19937's holds an array)."""
    return json.dumps(rng.bit_generator.state, sort_keys=True,
                      default=lambda array: array.tolist())


def counted(name):
    return obs.registry().snapshot()["counters"].get(name, 0)


def run_both(circuit, noise, batch, make_rng, tilt=None,
             program=None):
    """``(records, weights or None, generator state)`` per executor:
    native, then the numpy walk."""
    out = []
    for walk in ("native", "numpy"):
        blocks = counted("stabilizer.native_blocks")
        rng = make_rng()
        if walk == "numpy":
            result = numpy_walk(circuit, noise, batch, rng, tilt)
        else:
            result = run_batch_noisy(circuit, noise, batch, rng=rng,
                                     backend="tableau", tilt=tilt,
                                     program=program)
        records, weights = result if tilt is not None else (result, None)
        assert counted("stabilizer.native_blocks") \
            == blocks + (walk == "native")
        out.append((records, weights, state(rng)))
    return out


def assert_same(native, numpy_run):
    (rec_a, w_a, end_a), (rec_b, w_b, end_b) = native, numpy_run
    assert rec_a.dtype == rec_b.dtype == np.uint8
    assert np.array_equal(rec_a, rec_b)
    if w_a is None:
        assert w_b is None
    else:
        assert w_a.tobytes() == w_b.tobytes()
    assert end_a == end_b


def noise_model(kinds, num_qubits, p, pick):
    """A model of the channels ``kinds`` names on ``num_qubits`` qubits:
    ``p`` is the depolarize, erasure and logical flip probability (1.0
    draws nothing at an erasure site, and flips every shot)."""
    root = int(pick.integers(num_qubits))
    event = RadiationEvent(root, {q: abs(q - root) for q in range(num_qubits)},
                           num_qubits=num_qubits)
    make = {
        "depolarize": lambda: DepolarizingNoise(p),
        "radiation": lambda: event.channel(int(pick.integers(10))),
        "burst": lambda: event.burst(int(pick.integers(3)),
                                     int(pick.integers(1, 4))),
        "erasure": lambda: ErasureChannel(
            pick.choice(num_qubits, size=1 + num_qubits // 3,
                        replace=False).tolist(), p),
        "logical": lambda: LogicalFaultChannel(
            {q: p for q in range(0, num_qubits, 2)},
            phase_rates={q: p / 2 for q in range(num_qubits // 2)}),
    }
    return NoiseModel([make[kind]() for kind in kinds])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(num_qubits=st.integers(1, 8), prefix_gates=st.integers(0, 60),
       num_gates=st.integers(0, 50), measure_prob=st.floats(0.0, 0.4),
       reset_prob=st.floats(0.0, 0.3),
       circuit_seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(["depolarize", "radiation", "burst",
                                       "erasure", "logical"]), max_size=3),
       p=st.sampled_from([1.0, 0.3, 1e-2]),
       batch=st.sampled_from(BATCHES),
       bit_generator=st.sampled_from(GENERATORS),
       rng_seed=st.integers(0, 2 ** 32 - 1),
       tilt=st.sampled_from([None, 1.0, 3.0]))
def test_random_clifford_circuits(num_qubits, prefix_gates,
                                  num_gates, measure_prob, reset_prob,
                                  circuit_seed, kinds, p, batch,
                                  bit_generator, rng_seed, tilt):
    """A random unitary prefix spreads the stabilizers, so later
    measurements multiply several rows and a wrong phase shows; random
    measurements and resets follow, under any mix of the channels."""
    circuit = random_clifford_circuit(num_qubits, prefix_gates,
                                      rng=circuit_seed)
    for gate in random_clifford_circuit(
            num_qubits, num_gates, rng=circuit_seed + 1,
            measure_prob=measure_prob, reset_prob=reset_prob):
        circuit.append(gate)
    noise = noise_model(kinds, num_qubits, p,
                        np.random.default_rng(circuit_seed))
    sampler = None if tilt is None else SamplerSpec(kind="tilt", tilt=tilt)
    native, numpy_run = run_both(
        circuit, noise, batch,
        lambda: np.random.Generator(bit_generator(rng_seed)), sampler)
    assert_same(native, numpy_run)


@pytest.mark.parametrize("num_qubits", [64, 65, 130])
@pytest.mark.parametrize("batch", [5, 65])
def test_registers_wider_than_a_word(num_qubits, batch):
    """Past 64 qubits a column spans several words per half: the
    deterministic sign carries the parity of the earlier words and the
    pivot may sit in any of them."""
    circuit = random_clifford_circuit(num_qubits, 8 * num_qubits, rng=11)
    for gate in random_clifford_circuit(num_qubits, 200, rng=12,
                                        measure_prob=0.3, reset_prob=0.1):
        circuit.append(gate)
    noise = noise_model(["radiation", "depolarize", "erasure", "logical"],
                        num_qubits, 0.3, np.random.default_rng(13))
    native, numpy_run = run_both(circuit, noise, batch,
                                 lambda: np.random.default_rng(14))
    assert_same(native, numpy_run)


@pytest.mark.parametrize("bit_generator", GENERATORS + (np.random.SFC64,))
@pytest.mark.parametrize("shots", [1, 3, 4, 5, 9, 64, 1000])
def test_random_outcomes_are_numpys_uint8_draws(shots, bit_generator):
    """``H; M`` on every shot is one random branch over all shots: the
    record is ``Generator.integers(0, 2, size=B, dtype=uint8)`` — bit 7
    of byte ``j % 4`` of ``next_uint32`` call ``j // 4`` — and the
    generator ends where numpy leaves it."""
    circuit = Circuit(1).h(0).measure(0, 0)
    got = np.random.Generator(bit_generator(5))
    records = run_batch_noisy(circuit, None, shots, rng=got,
                              backend="tableau")
    want = np.random.Generator(bit_generator(5))
    assert np.array_equal(records[:, 0],
                          want.integers(0, 2, size=shots, dtype=np.uint8))
    assert state(got) == state(want)


def test_a_call_without_a_program_leaves_numpys_end_state():
    """The compile a bare call makes draws from a scratch generator: the
    caller's ends where the numpy walk leaves it — and where a call
    given the program does."""
    circuit = random_clifford_circuit(6, 80, rng=3, measure_prob=0.2,
                                      reset_prob=0.1)
    noise = noise_model(["radiation", "depolarize"], 6, 0.3,
                        np.random.default_rng(4))
    bare, numpy_run = run_both(circuit, noise, 100,
                               lambda: np.random.default_rng(5))
    assert_same(bare, numpy_run)
    program = compile_frame_program(circuit, noise, rng=99)
    given_program, _ = run_both(circuit, noise, 100,
                                lambda: np.random.default_rng(5),
                                program=program)
    assert_same(given_program, numpy_run)


def test_a_program_of_another_width_is_refused():
    noise = NoiseModel([DepolarizingNoise(0.1)])
    program = compile_frame_program(Circuit(3).h(0).measure(0, 0), noise)
    with pytest.raises(ValueError, match="register width"):
        run_batch_noisy(Circuit(2).h(0).measure(0, 0), noise, 8, rng=0,
                        backend="tableau", program=program)


def test_campaign_blocks_run_native_and_count():
    """An ``auto`` fig5-shaped strike falls back to the tableau: its
    blocks run natively from the point's binding of its cell's
    structure — bound, never recompiled — and every tableau block is
    a native one."""
    task = InjectionTask(
        code=CodeSpec("xxzz", (3, 3)), arch=ArchSpec("mesh", (5, 4)),
        fault=FaultSpec(kind="radiation", root_qubit=2, time_index=4),
        intrinsic_p=1e-3, backend="auto", shots=1536, seed=3)
    _task_context.cache_clear()
    _structure_cell.cache_clear()
    obs.reset()
    run_task(task)
    counters = obs.registry().snapshot()["counters"]
    assert counters["engine.backend_fallbacks"] == 1
    assert counters["frames.compiles"] == 1
    assert counters["stabilizer.native_blocks"] \
        == counters["engine.blocks"] == 3
