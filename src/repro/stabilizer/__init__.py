"""Stabilizer (Pauli) algebra.

* :class:`PauliString` — symplectic Pauli algebra.
* :func:`symplectic_commutes` — commutation of symplectic vectors.
"""

from .pauli import PauliString, symplectic_commutes

__all__ = [
    "PauliString",
    "symplectic_commutes",
]
