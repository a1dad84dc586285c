"""Pauli-string algebra in the symplectic (x, z) representation.

A Pauli operator on ``n`` qubits is stored as two length-``n`` binary
vectors ``x`` and ``z`` plus a phase exponent ``phase`` such that the
operator equals ``i**phase * prod_j X_j^{x_j} Z_j^{z_j}``.

The same convention underlies the tableau simulators, so this module is
both a user-facing utility (stabilizer bookkeeping in the code classes)
and the reference implementation the simulators are tested against.
"""

from __future__ import annotations

import numpy as np

_XZ_TO_CHAR = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


class PauliString:
    """An n-qubit Pauli operator with phase ``i**phase``.

    Parameters
    ----------
    x, z:
        Binary arrays (or sequences) of equal length.
    phase:
        Phase exponent modulo 4 (``i**phase``).  Hermitian Pauli strings
        have phase 0 or 2 after accounting for the ``i`` absorbed into
        each ``Y = i X Z``; this class tracks the *global* convention
        where the stored operator is ``i**phase * X^x Z^z``.
    """

    __slots__ = ("x", "z", "phase")

    def __init__(self, x, z, phase: int = 0) -> None:
        self.x = np.asarray(x, dtype=np.uint8) % 2
        self.z = np.asarray(z, dtype=np.uint8) % 2
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise ValueError("x and z must be equal-length 1-D arrays")
        self.phase = int(phase) % 4

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return int(self.x.shape[0])

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def commutes_with(self, other: "PauliString") -> bool:
        """Symplectic inner product test: True iff the operators commute."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit-count mismatch")
        sym = np.count_nonzero(self.x & other.z) + np.count_nonzero(self.z & other.x)
        return sym % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product ``self @ other`` (self applied after other)."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit-count mismatch")
        # (X^x1 Z^z1)(X^x2 Z^z2): commuting Z^z1 past X^x2 yields
        # (-1)^(z1.x2) = i^(2 z1.x2).
        phase = (self.phase + other.phase
                 + 2 * int(np.count_nonzero(self.z & other.x))) % 4
        return PauliString(self.x ^ other.x, self.z ^ other.z, phase)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z)
                and self.phase == other.phase)

    def __hash__(self) -> int:
        return hash((self.x.tobytes(), self.z.tobytes(), self.phase))

    def __neg__(self) -> "PauliString":
        return PauliString(self.x, self.z, self.phase + 2)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def label(self) -> str:
        """Canonical label, e.g. ``"-XIY"``; one char per qubit."""
        chars = []
        n_y = 0
        for xb, zb in zip(self.x, self.z):
            chars.append(_XZ_TO_CHAR[(int(xb), int(zb))])
            n_y += int(xb) & int(zb)
        ph = (self.phase - n_y) % 4
        prefix = {0: "+", 1: "i", 2: "-", 3: "-i"}[ph]
        return prefix + "".join(chars)

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"
