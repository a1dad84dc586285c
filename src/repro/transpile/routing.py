"""SWAP routing.

Walks the logical circuit keeping a live logical<->physical mapping;
whenever a two-qubit gate's operands are not adjacent on the
architecture, SWAPs (tagged ``"route"``) are inserted along a shortest
path until they are.  The emitted circuit acts on *physical* qubit
indices, which is what the radiation model needs — a fault is anchored
to a physical location, and logical qubits migrate across it as SWAPs
execute, exactly as on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arch.graph import ArchitectureGraph
from ..circuits import Circuit, Gate, GateType


@dataclass
class RoutedCircuit:
    """Result of routing: physical circuit plus mapping bookkeeping."""

    circuit: Circuit
    initial_layout: Dict[int, int]
    final_layout: Dict[int, int]
    swap_count: int
    arch: ArchitectureGraph


#: Gates of lookahead used when scoring which operand to walk.
_LOOKAHEAD_WINDOW = 12


def route(circuit: Circuit, arch: ArchitectureGraph,
          initial_layout: Dict[int, int],
          decompose_swaps: bool = False,
          policy: str = "lookahead") -> RoutedCircuit:
    """Insert SWAPs so every two-qubit gate lands on an edge.

    Parameters
    ----------
    circuit:
        Logical circuit.
    arch:
        Target coupling graph.
    initial_layout:
        ``{logical: physical}`` placement covering all circuit qubits.
    decompose_swaps:
        Emit each routing SWAP as three CNOTs (matching hardware cost
        and exposing three fault sites instead of one).
    policy:
        ``"lookahead"`` (default) scores walking either operand against
        the next few two-qubit gates and picks the cheaper direction —
        this is what lets a hub qubit (e.g. the readout ancilla
        collecting parity from every data qubit) travel instead of
        dragging each partner to it.  ``"walk-first"`` always moves the
        first operand (the naive baseline, kept as a routing ablation).
    """
    if policy not in ("lookahead", "walk-first"):
        raise ValueError(f"unknown routing policy {policy!r}")
    if len(initial_layout) < circuit.num_qubits:
        raise ValueError("initial layout does not cover the circuit")
    l2p = dict(initial_layout)
    p2l: Dict[int, int] = {p: l for l, p in l2p.items()}
    if len(p2l) != len(l2p):
        raise ValueError("initial layout is not injective")

    out = Circuit(arch.num_qubits, circuit.num_cbits,
                  name=f"{circuit.name}@{arch.name}")
    swap_count = 0
    dist = arch.distance_matrix()

    # Upcoming two-qubit gates, indexed for the lookahead window.
    gates = list(circuit)
    two_qubit_after: List[List[Tuple[int, int]]] = []
    upcoming: List[Tuple[int, int]] = []
    for g in reversed(gates):
        two_qubit_after.append(list(upcoming[:_LOOKAHEAD_WINDOW]))
        if g.num_qubits == 2 and g.gate_type is not GateType.BARRIER:
            upcoming.insert(0, g.qubits)
            del upcoming[_LOOKAHEAD_WINDOW:]
    two_qubit_after.reverse()

    def emit_swap(pa: int, pb: int) -> None:
        nonlocal swap_count
        if decompose_swaps:
            out.cx(pa, pb, tag="route")
            out.cx(pb, pa, tag="route")
            out.cx(pa, pb, tag="route")
        else:
            out.swap(pa, pb, tag="route")
        swap_count += 1
        la = p2l.get(pa)
        lb = p2l.get(pb)
        if la is not None:
            l2p[la] = pb
        if lb is not None:
            l2p[lb] = pa
        p2l[pa], p2l[pb] = lb, la
        if p2l[pa] is None:
            del p2l[pa]
        if p2l[pb] is None:
            del p2l[pb]

    def walk_cost(mover: int, path: List[int], gate_index: int) -> float:
        """Windowed cost of walking ``mover`` along ``path``.

        Simulates the swaps on a scratch copy of the mapping (bystander
        displacement included) and sums the distances of the next few
        two-qubit gates under the hypothetical layout — SABRE-style
        scoring specialised to the two candidate walk directions.
        """
        hypo = dict(l2p)
        hypo_p2l = {p: l for l, p in hypo.items()}
        pos = hypo[mover]
        for step in path[1:-1]:
            other = hypo_p2l.get(step)
            hypo[mover] = step
            hypo_p2l[step] = mover
            if other is not None:
                hypo[other] = pos
                hypo_p2l[pos] = other
            else:
                del hypo_p2l[pos]
            pos = step
        return float(sum(dist[hypo[a], hypo[b]]
                         for a, b in two_qubit_after[gate_index]))

    for gate_index, gate in enumerate(gates):
        if gate.gate_type is GateType.BARRIER:
            out.append(Gate(GateType.BARRIER,
                            tuple(l2p[q] for q in gate.qubits), tag=gate.tag))
            continue
        if gate.num_qubits == 1:
            out.append(Gate(gate.gate_type, (l2p[gate.qubits[0]],),
                            cbit=gate.cbit, tag=gate.tag))
            continue
        la, lb = gate.qubits
        pa, pb = l2p[la], l2p[lb]
        if not arch.has_edge(pa, pb):
            path = arch.shortest_path(pa, pb)
            if len(path) < 2:
                raise ValueError(
                    f"no path between physical {pa} and {pb} on {arch.name}")
            mover = la
            if policy == "lookahead":
                # Walking la parks it next to pb and vice versa; score
                # both hypothetical layouts against the upcoming gates
                # (ties keep la moving).
                cost_a = walk_cost(la, path, gate_index)
                cost_b = walk_cost(lb, list(reversed(path)), gate_index)
                if cost_b < cost_a:
                    mover = lb
                    path = list(reversed(path))
            for step in path[1:-1]:
                emit_swap(l2p[mover], step)
            pa, pb = l2p[la], l2p[lb]
            if not arch.has_edge(pa, pb):
                raise AssertionError("routing failed to make qubits adjacent")
        out.append(Gate(gate.gate_type, (pa, pb), tag=gate.tag))

    return RoutedCircuit(circuit=out, initial_layout=dict(initial_layout),
                         final_layout=dict(l2p), swap_count=swap_count,
                         arch=arch)
