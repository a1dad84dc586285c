#!/usr/bin/env python
"""Extend the library with a new QEC code (paper §IV: "the methodology
... can be easily adapted to future QEC codes").

Defines the [[4,1,2]] Bacon-Shor-style subsystem-surface patch — four
data qubits, one ZZZZ check, one XXXX check — as a custom
:class:`StabilizerCode` subclass, then reuses the entire pipeline
(memory circuit, radiation injection, MWPM decoding) unchanged.

Run:  python examples/custom_code.py
"""

from repro import (
    DepolarizingNoise,
    ErasureChannel,
    NoiseModel,
    build_memory_experiment,
    decoder_for,
    run_batch_noisy,
)
from repro.codes import StabilizerCode
from repro.detect import BurstAdaptiveDecoder
from repro.noise import RadiationBurst, RadiationEvent


class FourQubitCode(StabilizerCode):
    """The [[4,1,2]] error-detecting surface patch.

    Data qubits 0-3 on a 2x2 grid, one weight-4 Z check (ancilla 4), one
    weight-4 X check (ancilla 5), readout ancilla 6.  Distance 2: it
    detects any single error; MWPM pairs every defect with the boundary.
    """

    def __init__(self) -> None:
        self.name = "surface-[[4,1,2]]"
        self.distance = (2, 2)
        self.data_qubits = [0, 1, 2, 3]
        self.z_ancillas = [4]
        self.z_plaquettes = [(0, 1, 2, 3)]
        self.x_ancillas = [5]
        self.x_plaquettes = [(0, 1, 2, 3)]
        self.readout_qubit = 6
        self.logical_x_support = (0, 1)   # vertical pair
        self.logical_z_support = (0, 2)   # horizontal pair


def main() -> None:
    code = FourQubitCode()
    code.validate()   # stabilizer commutation + logical algebra
    print(f"defined {code}: {code.num_qubits} qubits")

    experiment = build_memory_experiment(code)
    decoder = decoder_for(experiment)

    print("\nscenario                       logical error")
    print("-" * 46)
    for label, noise in [
        ("noiseless", None),
        ("depolarizing p=1%", NoiseModel([DepolarizingNoise(0.01)])),
        ("depolarizing p=5%", NoiseModel([DepolarizingNoise(0.05)])),
        ("erasure on data qubit 0", NoiseModel([ErasureChannel([0])])),
    ]:
        records = run_batch_noisy(experiment.circuit, noise, 3000, rng=9)
        result = decoder.decode_batch(experiment, records)
        print(f"{label:30s} {result.logical_error_rate:10.2%}")

    # A radiation burst striking data qubit 0 at round 2 of a 10-round
    # memory.  The burst-adaptive decoder flags the struck shots; this
    # patch defines no planar embedding (``qubit_positions``), so it
    # erases the blast cluster instead of inverting the strike model.
    experiment = build_memory_experiment(code, rounds=10)
    event = RadiationEvent(root_qubit=0, distances=[0, 1, 1, 2, 1, 1, 2],
                           num_qubits=code.num_qubits)
    noise = NoiseModel([DepolarizingNoise(0.002),
                        RadiationBurst(event, strike_round=2,
                                       measures_per_round=2)])
    records = run_batch_noisy(experiment.circuit, noise, 3000, rng=9)
    adaptive = BurstAdaptiveDecoder(decoder_for(experiment))
    result = adaptive.decode_batch(experiment, records)
    flagged = int(adaptive.last_report.flagged.sum())
    print(f"{'burst at round 2 (adaptive)':30s} "
          f"{result.logical_error_rate:10.2%}  ({flagged} shots flagged)")

    print("\nEverything downstream of the code class — circuits, noise, "
          "injection, decoding — came from the library unchanged.")


if __name__ == "__main__":
    main()
