"""Gate definitions for the Clifford circuit IR.

The gate set is restricted to Clifford operations plus the non-unitary
``RESET`` and ``MEASURE`` operations, which is exactly the set needed to
express surface-code syndrome-extraction circuits, Pauli noise channels
and the radiation-induced reset faults studied in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class GateType(enum.Enum):
    """Enumeration of supported operations."""

    # Single-qubit Cliffords.
    I = "i"
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    # Two-qubit Cliffords.
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"
    # Non-unitary operations.
    RESET = "reset"
    MEASURE = "measure"
    # Structural marker (no effect on state; blocks DAG reordering).
    BARRIER = "barrier"


#: Gate types that act unitarily on the state.
UNITARY_GATES = frozenset(
    {
        GateType.I,
        GateType.X,
        GateType.Y,
        GateType.Z,
        GateType.H,
        GateType.S,
        GateType.SDG,
        GateType.CX,
        GateType.CZ,
        GateType.SWAP,
    }
)

#: Gate types acting on exactly two qubits.
TWO_QUBIT_GATES = frozenset({GateType.CX, GateType.CZ, GateType.SWAP})

#: Gate types acting on exactly one qubit.
SINGLE_QUBIT_GATES = frozenset(
    {
        GateType.I,
        GateType.X,
        GateType.Y,
        GateType.Z,
        GateType.H,
        GateType.S,
        GateType.SDG,
        GateType.RESET,
        GateType.MEASURE,
    }
)

#: Pauli gate types (used by noise channels).
PAULI_GATES = (GateType.X, GateType.Y, GateType.Z)


@dataclass(frozen=True)
class Gate:
    """A single operation applied to one or two qubits.

    Attributes
    ----------
    gate_type:
        The kind of operation.
    qubits:
        Qubit indices the operation acts on.  For ``CX`` the convention
        is ``(control, target)``.
    cbit:
        Classical bit index receiving the outcome for ``MEASURE``;
        ``None`` for every other gate type.
    tag:
        Free-form provenance label (e.g. ``"noise"``, ``"fault"``,
        ``"swap-route"``).  Structural code, noise binding and analysis
        use tags to distinguish ideal circuit operations from injected
        ones.
    """

    gate_type: GateType
    qubits: Tuple[int, ...]
    cbit: Optional[int] = None
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.gate_type is GateType.BARRIER:
            if not self.qubits:
                raise ValueError("barrier needs at least one qubit")
        elif self.gate_type in TWO_QUBIT_GATES:
            if len(self.qubits) != 2:
                raise ValueError(
                    f"{self.gate_type.value} expects 2 qubits, got {self.qubits!r}"
                )
            if self.qubits[0] == self.qubits[1]:
                raise ValueError(
                    f"{self.gate_type.value} qubits must differ, got {self.qubits!r}"
                )
        else:
            if len(self.qubits) != 1:
                raise ValueError(
                    f"{self.gate_type.value} expects 1 qubit, got {self.qubits!r}"
                )
        if self.gate_type is GateType.MEASURE:
            if self.cbit is None:
                raise ValueError("measure requires a classical bit index")
        elif self.cbit is not None:
            raise ValueError(f"{self.gate_type.value} must not carry a cbit")

    @property
    def is_barrier(self) -> bool:
        return self.gate_type is GateType.BARRIER

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def __str__(self) -> str:
        args = ",".join(str(q) for q in self.qubits)
        if self.gate_type is GateType.MEASURE:
            return f"measure q{args} -> c{self.cbit}"
        return f"{self.gate_type.value} q{args}"
