"""Circuit helpers for the tests: random Clifford circuits, and the
transpiler's checks.

:func:`random_clifford_circuit` is not a uniform sampler over the
Clifford group — just a convenient way to produce diverse circuits
(optionally with measurements and resets) that exercise every code
path of the simulators.

The transpiler is held to two statements:

* connectivity compliance (:func:`check_connectivity`) — every
  two-qubit gate must sit on an edge;
* semantic equivalence (:func:`records_equal`) — the routed circuit
  must produce the same classical records as the logical one on the
  single-shot tableau of :mod:`oracles.chp` (exact for deterministic
  circuits).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.arch import ArchitectureGraph
from repro.circuits import Circuit, GateType
from repro.circuits.gates import TWO_QUBIT_GATES
from repro.transpile import RoutedCircuit

from oracles.chp import TableauSimulator

_UNITARIES = (
    GateType.H,
    GateType.S,
    GateType.SDG,
    GateType.X,
    GateType.Y,
    GateType.Z,
    GateType.CX,
    GateType.CZ,
    GateType.SWAP,
)


def random_clifford_circuit(
    num_qubits: int,
    num_gates: int,
    rng: Optional[np.random.Generator | int] = None,
    measure_prob: float = 0.0,
    reset_prob: float = 0.0,
) -> Circuit:
    """Generate a random circuit.

    Parameters
    ----------
    num_qubits, num_gates:
        Register width and number of operations.
    rng:
        Seed or generator for reproducibility.
    measure_prob, reset_prob:
        Per-site probability of emitting a measurement / reset instead
        of a unitary (two-qubit unitaries are skipped when
        ``num_qubits == 1``).
    """
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    pool = [g for g in _UNITARIES
            if num_qubits >= 2 or g not in TWO_QUBIT_GATES]
    circuit = Circuit(num_qubits, name="random_clifford")
    cbit = 0
    for _ in range(num_gates):
        u = rng.random()
        if u < measure_prob:
            q = int(rng.integers(num_qubits))
            circuit.measure(q, cbit)
            cbit += 1
            continue
        if u < measure_prob + reset_prob:
            circuit.reset(int(rng.integers(num_qubits)))
            continue
        gt = pool[int(rng.integers(len(pool)))]
        if gt in TWO_QUBIT_GATES:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit._add(gt, int(a), int(b))  # noqa: SLF001 - internal builder
        else:
            circuit._add(gt, int(rng.integers(num_qubits)))  # noqa: SLF001
    return circuit


def check_connectivity(circuit: Circuit, arch: ArchitectureGraph
                       ) -> List[Tuple[int, Tuple[int, ...]]]:
    """Return the list of (gate index, qubits) violating the coupling map.

    Empty list means the circuit is architecture-compliant.
    """
    bad = []
    for i, g in enumerate(circuit):
        if g.num_qubits == 2 and g.gate_type is not GateType.BARRIER:
            if not arch.has_edge(*g.qubits):
                bad.append((i, g.qubits))
    return bad


def records_equal(logical: Circuit, routed: RoutedCircuit,
                  seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)) -> bool:
    """Compare classical records of logical vs routed circuit.

    Runs both circuits with the same seeds; for circuits whose outcomes
    are deterministic this is an exact equivalence check, for random
    outcomes it verifies the record structure matches shot by shot only
    when the measurement randomness consumption aligns (callers should
    prefer deterministic circuits).
    """
    for seed in seeds:
        a = TableauSimulator(logical.num_qubits, rng=seed).run(logical)
        b = TableauSimulator(routed.circuit.num_qubits, rng=seed).run(
            routed.circuit)
        if a != b:
            return False
    return True
