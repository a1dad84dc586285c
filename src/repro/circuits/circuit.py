"""The :class:`Circuit` container.

A :class:`Circuit` is an ordered list of :class:`~repro.circuits.gates.Gate`
operations over ``num_qubits`` qubits and ``num_cbits`` classical bits.
It is deliberately minimal — the simulators, noise binder, transpiler
and code builders all consume or emit this one structure.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .gates import Gate, GateType, TWO_QUBIT_GATES


class Circuit:
    """An ordered sequence of gates on ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Number of qubits addressed by the circuit.
    num_cbits:
        Number of classical bits.  Grows automatically when a measure
        targeting a larger index is appended.
    name:
        Optional human-readable label.
    """

    def __init__(self, num_qubits: int, num_cbits: int = 0, name: str = "") -> None:
        if num_qubits <= 0:
            raise ValueError("circuit needs at least one qubit")
        if num_cbits < 0:
            raise ValueError("num_cbits must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_cbits = int(num_cbits)
        self.name = name
        self._gates: List[Gate] = []

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, idx):
        return self._gates[idx]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_cbits == other.num_cbits
            and self._gates == other._gates
        )

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        """Append a prebuilt :class:`Gate` (validates qubit bounds)."""
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )
        if gate.cbit is not None and gate.cbit >= self.num_cbits:
            self.num_cbits = gate.cbit + 1
        self._gates.append(gate)
        return self

    def _add(self, gate_type: GateType, *qubits: int, cbit: Optional[int] = None,
             tag: str = "") -> "Circuit":
        return self.append(Gate(gate_type, tuple(qubits), cbit=cbit, tag=tag))

    def x(self, q: int, tag: str = "") -> "Circuit":
        return self._add(GateType.X, q, tag=tag)

    def z(self, q: int, tag: str = "") -> "Circuit":
        return self._add(GateType.Z, q, tag=tag)

    def h(self, q: int, tag: str = "") -> "Circuit":
        return self._add(GateType.H, q, tag=tag)

    def cx(self, control: int, target: int, tag: str = "") -> "Circuit":
        return self._add(GateType.CX, control, target, tag=tag)

    def swap(self, a: int, b: int, tag: str = "") -> "Circuit":
        return self._add(GateType.SWAP, a, b, tag=tag)

    def reset(self, q: int, tag: str = "") -> "Circuit":
        return self._add(GateType.RESET, q, tag=tag)

    def measure(self, q: int, cbit: int, tag: str = "") -> "Circuit":
        return self._add(GateType.MEASURE, q, cbit=cbit, tag=tag)

    def qubits_used(self) -> Tuple[int, ...]:
        """Sorted tuple of qubit indices touched by at least one gate."""
        seen = set()
        for g in self._gates:
            if g.is_barrier:
                continue
            seen.update(g.qubits)
        return tuple(sorted(seen))

    def interaction_graph(self):
        """Return the qubit interaction multigraph as an edge-count dict.

        Keys are sorted qubit pairs ``(a, b)``; values count two-qubit
        gates between them.  Used by the transpiler's layout stage.
        """
        edges: Dict[Tuple[int, int], int] = {}
        for g in self._gates:
            if g.gate_type in TWO_QUBIT_GATES:
                a, b = sorted(g.qubits)
                edges[(a, b)] = edges.get((a, b), 0) + 1
        return edges

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (f"<Circuit{label}: {self.num_qubits} qubits, "
                f"{self.num_cbits} cbits, {len(self._gates)} gates>")
