"""Whole-graph facts about an :class:`~repro.arch.graph.ArchitectureGraph`
that only the tests ask: its edge list, connectivity, diameter and
induced subgraphs.  The device factories and Fig. 7's cluster sampler
are checked against them."""

from typing import List, Sequence, Tuple

import numpy as np

from repro.arch.graph import ArchitectureGraph


def edges(graph: ArchitectureGraph) -> List[Tuple[int, int]]:
    """``(a, b)`` with ``a < b``: by ``a``, then in insertion order."""
    return [(a, b) for a in range(graph.num_qubits)
            for b in graph._adj[a] if b > a]


def distance(graph: ArchitectureGraph, a: int, b: int) -> float:
    return float(graph.distance_matrix()[a, b])


def is_connected(graph: ArchitectureGraph) -> bool:
    return bool(graph.num_qubits) \
        and bool(np.isfinite(graph.distance_matrix()[0]).all())


def diameter(graph: ArchitectureGraph) -> int:
    if not is_connected(graph):
        raise ValueError("diameter undefined for disconnected graph")
    return int(graph.distance_matrix().max())


def subgraph(graph: ArchitectureGraph, qubits: Sequence[int],
             name: str = "") -> ArchitectureGraph:
    """Induced subgraph relabelled to 0..k-1 (sorted order)."""
    qubits = sorted(int(q) for q in qubits)
    remap = {q: i for i, q in enumerate(qubits)}
    kept = [(remap[a], remap[b]) for a, b in edges(graph)
            if a in remap and b in remap]
    return ArchitectureGraph(kept, num_qubits=len(qubits),
                             name=name or f"{graph.name}[{len(qubits)}]")
