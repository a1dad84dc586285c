"""Stream pin for the batched tableau backend.

``tests/data/tableau_records_pr20.json`` holds, for every case below,
the SHA-256 of the records and of the generator state left behind by
``run_batch_noisy(..., backend="tableau")`` — written at PR 20, before
the tableau was re-laid row-packed.  The kernel's contract is that a
seed fixes both: one ``rng.integers(0, 2, size=k, dtype=uint8)`` per
random-branch measure, shots in ascending order, pivot = first
stabilizer row holding ``X_a``.  Any drift in an outcome or in the
number/order of draws fails here; no copy of an old kernel is kept as
an oracle.  Every case runs on both executors — ``_kernel.c``'s native
tableau through the backend, and its oracle, the numpy walk of
``oracles.tableau``, called directly.
(``python tests/test_tableau_stream.py`` rewrites the file — only ever
at a commit whose stream *is* the contract.)
"""

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.arch import mesh
from repro.codes import RepetitionCode, XXZZCode, build_memory_experiment
from repro.logical import LogicalFaultChannel
from repro.noise import (
    DepolarizingNoise,
    ErasureChannel,
    NoiseModel,
    RadiationEvent,
    run_batch_noisy,
)
from repro.transpile import transpile

from oracles.tableau import numpy_walk

DATA = Path(__file__).parent / "data" / "tableau_records_pr20.json"
BATCHES = (1, 63, 512, 1000)
ROOT = 2
CODES = {"rep51": RepetitionCode(5), "xxzz33": XXZZCode(3, 3),
         "xxzz55": XXZZCode(5, 5)}
NOISES = ("none", "depol", "rad_t0", "rad_t4", "burst", "erasure_p1",
          "erasure_p03", "logical")


def _circuits():
    """``name -> (circuit, distances from ROOT, register width,
    measures per round)``: each code plain (qubit-line metric, as the
    campaign engine uses without an architecture) and, where it fits,
    routed onto mesh 5x4 (XXZZ (5,5) has 49 qubits and does not)."""
    arch = mesh(5, 4)
    out = {}
    for name, code in CODES.items():
        circuit = build_memory_experiment(code).circuit
        n = circuit.num_qubits
        mpr = code.measures_per_round
        out[name] = (circuit, {q: abs(q - ROOT) for q in range(n)}, n, mpr)
        if n <= arch.num_qubits:
            out[name + "@mesh5x4"] = (
                transpile(circuit, arch).circuit,
                arch.distances_from(ROOT), arch.num_qubits, mpr)
    return out


def _noise(kind, distances, num_qubits, mpr):
    if kind == "none":
        return None
    event = RadiationEvent(ROOT, distances, num_qubits=num_qubits)
    channel = {
        "depol": lambda: DepolarizingNoise(1e-2),
        "rad_t0": lambda: event.channel(0),
        "rad_t4": lambda: event.channel(4),
        "burst": lambda: event.burst(1, mpr),
        "erasure_p1": lambda: ErasureChannel([ROOT], 1.0),
        "erasure_p03": lambda: ErasureChannel([ROOT, ROOT + 1], 0.3),
        "logical": lambda: LogicalFaultChannel(
            {q: 0.02 for q in range(0, num_qubits, 2)},
            phase_rates={q: 0.01 for q in range(1, num_qubits, 3)}),
    }[kind]()
    return NoiseModel([channel])


CIRCUITS = _circuits()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_digests(circuit_name, noise_kind, batches=BATCHES,
                 walk="native"):
    """``{case key: [records sha, rng-state sha]}`` for one circuit and
    noise kind, one entry per batch size — through the tableau backend,
    or (``walk="numpy"``) straight on the numpy walk."""
    circuit, distances, nq, mpr = CIRCUITS[circuit_name]
    out = {}
    for batch in batches:
        key = f"{circuit_name}/{noise_kind}/B{batch}"
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        noise = _noise(noise_kind, distances, nq, mpr)
        if walk == "numpy":
            records = numpy_walk(circuit, noise, batch, rng)
        else:
            records = run_batch_noisy(circuit, noise, batch, rng=rng,
                                      backend="tableau")
        state = json.dumps(rng.bit_generator.state, sort_keys=True)
        out[key] = [_sha(repr(records.shape).encode() + records.tobytes()),
                    _sha(state.encode())]
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def _native_blocks():
    return obs.registry().snapshot()["counters"].get(
        "stabilizer.native_blocks", 0)


def test_pin_covers_every_case(pinned):
    assert len(pinned) == len(CIRCUITS) * len(NOISES) * len(BATCHES)


@pytest.mark.parametrize("walk", ["numpy", "native"])
@pytest.mark.parametrize("noise_kind", NOISES)
@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
def test_records_and_rng_state_pinned(pinned, circuit_name, noise_kind,
                                      walk):
    before = _native_blocks()
    for key, digests in case_digests(circuit_name, noise_kind,
                                     walk=walk).items():
        assert digests[0] == pinned[key][0], f"{key}: records drifted"
        assert digests[1] == pinned[key][1], f"{key}: rng stream drifted"
    native = len(BATCHES) if walk == "native" else 0
    assert _native_blocks() - before == native


def test_digests_hold_without_bitwise_count(pinned, monkeypatch):
    """The ``numpy>=1.22`` floor has no ``np.bitwise_count``: the
    byte-table popcount of the numpy walk must give the same stream."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for circuit_name in sorted(CIRCUITS):
        for kind in ("rad_t0", "depol"):
            got = case_digests(circuit_name, kind, batches=(63,),
                               walk="numpy")
            assert got == {key: pinned[key] for key in got}


if __name__ == "__main__":
    digests = {}
    for circuit_name in sorted(CIRCUITS):
        for kind in NOISES:
            digests.update(case_digests(circuit_name, kind))
    DATA.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {DATA}")
