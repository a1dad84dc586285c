"""Pauli-string helpers only the tests use: parsing a label, weight and
support, hermiticity, the dense matrix, and batched commutation.  The
symplectic algebra of :class:`~repro.stabilizer.PauliString` (products,
commutation, phases) and the tableau simulators are checked against
them.
"""

from typing import Tuple

import numpy as np

from repro.stabilizer import PauliString

_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def from_label(label: str) -> PauliString:
    """Parse e.g. ``"+XIZ"``, ``"-YY"``, ``"iXZ"``, ``"XX"``.

    The leftmost character of the body acts on qubit 0.
    """
    phase = 0
    body = label
    while body and body[0] in "+-i":
        if body[0] == "-":
            phase += 2
        elif body[0] == "i":
            phase += 1
        body = body[1:]
    if not body:
        raise ValueError(f"empty Pauli label: {label!r}")
    xs, zs = [], []
    n_y = 0
    for ch in body.upper():
        if ch not in _CHAR_TO_XZ:
            raise ValueError(f"bad Pauli character {ch!r} in {label!r}")
        xb, zb = _CHAR_TO_XZ[ch]
        xs.append(xb)
        zs.append(zb)
        n_y += xb & zb
    # Y = i XZ, so a label "Y" corresponds to x=z=1 with an extra i.
    return PauliString(np.array(xs), np.array(zs), (phase + n_y) % 4)


def single(n: int, qubit: int, kind: str) -> PauliString:
    """Weight-one Pauli ``kind`` in an n-qubit register."""
    p = PauliString.identity(n)
    xb, zb = _CHAR_TO_XZ[kind.upper()]
    p.x[qubit] = xb
    p.z[qubit] = zb
    if xb and zb:
        p.phase = 1
    return p


def weight(p: PauliString) -> int:
    """Number of qubits acted on non-trivially."""
    return int(np.count_nonzero(p.x | p.z))


def support(p: PauliString) -> Tuple[int, ...]:
    return tuple(int(q) for q in np.nonzero(p.x | p.z)[0])


def is_hermitian(p: PauliString) -> bool:
    """True when the operator is Hermitian (phase real after Y-factors)."""
    n_y = int(np.count_nonzero(p.x & p.z))
    return (p.phase - n_y) % 2 == 0


def to_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix (few qubits only)."""
    I = np.eye(2, dtype=complex)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    out = np.array([[1.0 + 0j]])
    for xb, zb in zip(p.x, p.z):
        m = I
        if xb and zb:
            m = X @ Z
        elif xb:
            m = X
        elif zb:
            m = Z
        out = np.kron(out, m)
    return (1j ** p.phase) * out


def symplectic_commutes(x1: np.ndarray, z1: np.ndarray,
                        x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Vectorized commutation test over batches of Pauli bit-vectors.

    Returns a boolean array: True where the row pairs commute.  Inputs
    broadcast against each other along leading dimensions.
    """
    sym = (np.sum(x1 & z2, axis=-1, dtype=np.int64)
           + np.sum(z1 & x2, axis=-1, dtype=np.int64)) % 2
    return sym == 0
