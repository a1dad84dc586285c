"""Stabilizer (Clifford) simulation.

* :class:`PauliString` — symplectic Pauli algebra.
* :class:`Tableau` — Aaronson–Gottesman tableau (single state).
* :class:`TableauSimulator` — single-shot reference simulator.
* :func:`random_clifford_circuit` — test-circuit generation.
"""

from .pauli import PauliString, symplectic_commutes
from .tableau import Tableau
from .simulator import TableauSimulator, run_shot
from .random_clifford import (
    random_clifford_circuit,
    random_stabilizer_state_circuit,
)

__all__ = [
    "PauliString",
    "symplectic_commutes",
    "Tableau",
    "TableauSimulator",
    "run_shot",
    "random_clifford_circuit",
    "random_stabilizer_state_circuit",
]
