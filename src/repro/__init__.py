"""repro — reproduction of "On the Efficacy of Surface Codes in
Compensating for Radiation Events in Superconducting Devices" (SC 2024).

The package implements, from scratch, the full stack the paper's study
rests on:

* a Clifford circuit IR and its Pauli algebra (:mod:`repro.circuits`,
  :mod:`repro.stabilizer`);
* the Pauli-frame sampler and the batched stabilizer tableau, both in
  one native kernel (:mod:`repro.frames`);
* the intrinsic depolarizing noise model and the radiation-induced
  transient fault model, Eqs. 4-7 (:mod:`repro.noise`);
* architecture graphs and a transpiler (:mod:`repro.arch`,
  :mod:`repro.transpile`);
* the repetition and XXZZ surface codes with the paper's
  memory-experiment circuits (:mod:`repro.codes`);
* MWPM and union-find decoders (:mod:`repro.decoders`);
* the fault-injection campaign toolkit (:mod:`repro.injection`);
* per-figure experiment generators (:mod:`repro.experiments`).

Quickstart::

    from repro import (RepetitionCode, build_memory_experiment,
                       decoder_for, DepolarizingNoise, NoiseModel,
                       run_batch_noisy)

    exp = build_memory_experiment(RepetitionCode(5))
    records = run_batch_noisy(exp.circuit,
                              NoiseModel([DepolarizingNoise(0.01)]),
                              batch_size=2000, rng=7)
    result = decoder_for(exp).decode_batch(exp, records)
    print(result.logical_error_rate)
"""

from .arch import ArchitectureGraph, by_name as architecture_by_name
from .circuits import Circuit, Gate, GateType
from .codes import (
    MemoryExperiment,
    QubitRole,
    RepetitionCode,
    StabilizerCode,
    XXZZCode,
    build_memory_experiment,
)
from .decoders import (
    DecodeResult,
    Decoder,
    DetectorGraph,
    MWPMDecoder,
    UnionFindDecoder,
    decoder_for,
)
from .injection import (
    ArchSpec,
    Campaign,
    CodeSpec,
    FaultSpec,
    InjectionResult,
    InjectionTask,
    ResultSet,
)
from .noise import (
    DepolarizingNoise,
    ErasureChannel,
    NoiseChannel,
    NoiseModel,
    RadiationChannel,
    RadiationEvent,
    run_batch_noisy,
    spatial_damping,
    temporal_decay,
    transient_decay,
)
from .stabilizer import PauliString
from .transpile import RoutedCircuit, transpile

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # circuits
    "Circuit", "Gate", "GateType",
    # Pauli algebra
    "PauliString",
    # noise
    "NoiseChannel", "NoiseModel", "DepolarizingNoise", "ErasureChannel",
    "RadiationChannel", "RadiationEvent", "temporal_decay",
    "spatial_damping", "transient_decay", "run_batch_noisy",
    # arch / transpile
    "ArchitectureGraph", "architecture_by_name", "transpile",
    "RoutedCircuit",
    # codes
    "StabilizerCode", "RepetitionCode", "XXZZCode", "QubitRole",
    "MemoryExperiment", "build_memory_experiment",
    # decoders
    "Decoder", "DecodeResult", "DetectorGraph", "MWPMDecoder",
    "UnionFindDecoder", "decoder_for",
    # injection
    "Campaign", "CodeSpec", "ArchSpec", "FaultSpec", "InjectionTask",
    "InjectionResult", "ResultSet",
]
