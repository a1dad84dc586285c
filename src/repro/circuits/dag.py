"""Directed-acyclic-graph view of a circuit.

The paper's Observation VII explains qubit criticality through the DAG
of sequential gate dependencies: a fault on a qubit used early in the
gate sequence reaches more *descendants* and therefore corrupts more of
the code.  This module builds that DAG and exposes the reachability
metrics used by the architecture analysis (Fig. 8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Set, Tuple

from .circuit import Circuit
from .gates import GateType

if TYPE_CHECKING:
    import networkx as nx


def _dependencies(circuit: Circuit) -> Iterator[Tuple[int, int]]:
    """The DAG's edges ``(i, j)`` in gate order: gate ``j`` consumes a
    qubit last written by gate ``i``."""
    last_use: Dict[int, int] = {}
    for idx, gate in enumerate(circuit):
        for q in gate.qubits:
            prev = last_use.get(q)
            if prev is not None:
                yield prev, idx
            last_use[q] = idx


def _successors(circuit: Circuit) -> List[List[int]]:
    succ: List[List[int]] = [[] for _ in range(len(circuit))]
    for i, j in _dependencies(circuit):
        succ[i].append(j)
    return succ


def _descendants(succ: List[List[int]], start: int) -> Set[int]:
    """Gates reachable from ``start`` (excluding it)."""
    seen: Set[int] = set()
    stack = list(succ[start])
    while stack:
        idx = stack.pop()
        if idx not in seen:
            seen.add(idx)
            stack.extend(succ[idx])
    return seen


def build_dag(circuit: Circuit) -> "nx.DiGraph":
    """Build the gate-dependency DAG of ``circuit`` as a NetworkX graph.

    Nodes are gate indices (positions in the gate list); an edge
    ``i -> j`` means gate ``j`` consumes a qubit last written by gate
    ``i``.  Barriers create dependencies but appear as nodes too so the
    graph mirrors the gate list exactly.  The reachability helpers
    below walk the same edges without NetworkX.
    """
    import networkx as nx

    dag = nx.DiGraph()
    dag.add_nodes_from((idx, {"gate": gate})
                       for idx, gate in enumerate(circuit))
    dag.add_edges_from(_dependencies(circuit))
    return dag


def gate_descendants(circuit: Circuit, gate_index: int) -> Set[int]:
    """Indices of gates causally after ``gate_index``."""
    return _descendants(_successors(circuit), gate_index)


def qubit_descendant_counts(circuit: Circuit) -> Dict[int, int]:
    """For each qubit, the number of gates reachable from its first use.

    This is the "criticality" proxy from the paper's §V-D discussion: a
    particle strike on a qubit can only corrupt gates downstream of the
    first gate touching it, so larger counts mean more exposure.
    """
    succ = _successors(circuit)
    first_use: Dict[int, int] = {}
    for idx, gate in enumerate(circuit):
        for q in gate.qubits:
            first_use.setdefault(q, idx)
    counts: Dict[int, int] = {}
    for q in range(circuit.num_qubits):
        idx = first_use.get(q)
        if idx is None:
            counts[q] = 0
        else:
            counts[q] = len(_descendants(succ, idx)) + 1
    return counts


def qubit_light_cone(circuit: Circuit, qubit: int) -> Set[int]:
    """Qubits reachable (via gate dependencies) from ``qubit``'s first use.

    A fault at ``qubit`` can only propagate to qubits in this set.
    """
    first = None
    for idx, gate in enumerate(circuit):
        if qubit in gate.qubits:
            first = idx
            break
    if first is None:
        return set()
    reach = {first} | _descendants(_successors(circuit), first)
    cone: Set[int] = set()
    for idx in reach:
        cone.update(circuit[idx].qubits)
    return cone


def topological_layers(circuit: Circuit) -> List[List[int]]:
    """Partition gate indices into parallel layers (ASAP schedule)."""
    level: Dict[int, int] = {}
    qubit_level: Dict[int, int] = {}
    layers: List[List[int]] = []
    for idx, gate in enumerate(circuit):
        t = max((qubit_level.get(q, 0) for q in gate.qubits), default=0)
        if gate.gate_type is GateType.BARRIER:
            for q in gate.qubits:
                qubit_level[q] = t
            continue
        level[idx] = t
        for q in gate.qubits:
            qubit_level[q] = t + 1
        while len(layers) <= t:
            layers.append([])
        layers[t].append(idx)
    return layers


def critical_path_length(circuit: Circuit) -> int:
    """Length of the longest dependency chain (equals circuit depth)."""
    return len(topological_layers(circuit))
