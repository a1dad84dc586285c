"""Stabilizer (Pauli) algebra.

* :class:`PauliString` — symplectic Pauli algebra.
"""

from .pauli import PauliString

__all__ = [
    "PauliString",
]
