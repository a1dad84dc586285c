"""Clifford circuit intermediate representation.

Public surface:

* :class:`~repro.circuits.gates.Gate` / :class:`~repro.circuits.gates.GateType`
  and the gate-kind sets
* :class:`~repro.circuits.circuit.Circuit`
"""

from .gates import (
    Gate,
    GateType,
    PAULI_GATES,
    SINGLE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    UNITARY_GATES,
)
from .circuit import Circuit

__all__ = [
    "Gate",
    "GateType",
    "PAULI_GATES",
    "SINGLE_QUBIT_GATES",
    "TWO_QUBIT_GATES",
    "UNITARY_GATES",
    "Circuit",
]
