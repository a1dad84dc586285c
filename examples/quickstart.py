#!/usr/bin/env python
"""Quickstart: one surface-code memory experiment, end to end.

Builds the paper's distance-(5,1) bit-flip repetition code (Fig. 2),
runs it under 1% depolarizing noise, decodes with MWPM and reports the
logical error rate — the minimal loop every experiment in the paper
repeats at scale.

Run:  python examples/quickstart.py
"""

from repro import (
    DepolarizingNoise,
    NoiseModel,
    RepetitionCode,
    build_memory_experiment,
    decoder_for,
    run_batch_noisy,
)


def main() -> None:
    # 1. The code: 5 data qubits, 4 ZZ-check ancillas, 1 readout ancilla.
    code = RepetitionCode(5)
    print(f"code: {code}")
    print(f"  Z checks: {code.z_plaquettes}")
    print(f"  logical X support: {code.logical_x_support}")

    # 2. The memory experiment of Figs. 1-2: two syndrome rounds around
    #    a transversal logical X, then the parity readout.
    experiment = build_memory_experiment(code)
    print(f"\ncircuit: {experiment.circuit}")

    # 3. Simulate 4000 noisy shots (vectorized stabilizer simulation).
    noise = NoiseModel([DepolarizingNoise(0.01)])
    records = run_batch_noisy(experiment.circuit, noise,
                              batch_size=4000, rng=2024)

    # 4. Decode: MWPM over the space-time detector graph.
    decoder = decoder_for(experiment)
    result = decoder.decode_batch(experiment, records)

    raw_errors = (experiment.raw_readout(records)
                  != experiment.expected_logical).mean()
    print(f"\nshots:                {result.num_shots}")
    print(f"raw readout errors:   {raw_errors:.2%}")
    print(f"decoded logical error: {result.logical_error_rate:.2%}")
    print(f"decoder corrections:  {result.corrections.mean():.2%} of shots")


if __name__ == "__main__":
    main()
