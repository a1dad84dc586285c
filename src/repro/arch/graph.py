"""Architecture (coupling) graphs.

The paper models a quantum chip as an undirected *architecture graph*
whose nodes are physical qubits and whose unit-weight edges are the
allowed two-qubit interactions (§III-B).  Radiation spreads along graph
distance; the transpiler must respect adjacency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np


class ArchitectureGraph:
    """An undirected unit-weight coupling graph over physical qubits.

    Parameters
    ----------
    edges:
        Iterable of ``(a, b)`` pairs, each endpoint a qubit in
        ``[0, num_qubits)``; repeats collapse into one edge.
    num_qubits:
        Number of physical qubits; inferred from the edges when omitted.
    name:
        Human-readable identifier (used in reports).
    positions:
        Optional ``{qubit: (x, y)}`` layout hints for rendering.
    """

    def __init__(self, edges: Iterable[Tuple[int, int]],
                 num_qubits: Optional[int] = None, name: str = "",
                 positions: Optional[Dict[int, Tuple[float, float]]] = None
                 ) -> None:
        edges = [(int(a), int(b)) for a, b in edges]
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
        if num_qubits is None:
            num_qubits = max((max(a, b) for a, b in edges), default=-1) + 1
        n = int(num_qubits)
        #: Each qubit's neighbours in edge-insertion order.
        self._adj: List[List[int]] = [[] for _ in range(n)]
        self._edge_set: Set[Tuple[int, int]] = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(
                    f"edge ({a}, {b}) outside qubits 0..{n - 1}")
            key = (min(a, b), max(a, b))
            if key not in self._edge_set:
                self._edge_set.add(key)
                self._adj[a].append(b)
                self._adj[b].append(a)
        self.name = name
        self.positions = dict(positions) if positions else None
        self._dist_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return len(self._edge_set)

    def neighbors(self, q: int) -> List[int]:
        return sorted(self._adj[q])

    def degree(self, q: int) -> int:
        return len(self._adj[q])

    def average_degree(self) -> float:
        n = self.num_qubits
        return 2.0 * self.num_edges / n if n else 0.0

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self._edge_set

    # ------------------------------------------------------------------
    # Distances (unit edge weights, per the paper)
    # ------------------------------------------------------------------
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path matrix (a BFS per qubit); ``inf`` for
        disconnected pairs."""
        if self._dist_cache is None:
            n = self.num_qubits
            rows = []
            for src in range(n):
                row = [np.inf] * n
                row[src] = 0
                level = [src]
                while level:
                    nxt = []
                    for u in level:
                        for v in self._adj[u]:
                            if row[v] == np.inf:
                                row[v] = row[u] + 1
                                nxt.append(v)
                    level = nxt
                rows.append(row)
            self._dist_cache = np.array(rows, dtype=float).reshape(n, n)
        return self._dist_cache

    def distances_from(self, root: int) -> Dict[int, float]:
        """Graph distance from ``root`` to every reachable qubit."""
        row = self.distance_matrix()[root]
        return {q: float(row[q]) for q in range(self.num_qubits)
                if np.isfinite(row[q])}

    def shortest_path(self, a: int, b: int) -> List[int]:
        """A shortest path from ``a`` to ``b`` — the one NetworkX's
        ``shortest_path`` returns, so routed circuits do not depend on
        which library found it: a bidirectional BFS that grows the
        smaller fringe by a level (the forward one on ties), neighbours
        in edge-insertion order, and joins at the first node both
        searches have reached."""
        for q in (a, b):
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} not in {self.name or 'graph'}")
        if a == b:
            return [a]
        pred: Dict[int, Optional[int]] = {a: None}
        succ: Dict[int, Optional[int]] = {b: None}

        def grow(level: List[int], mine: Dict[int, Optional[int]],
                 other: Dict[int, Optional[int]]
                 ) -> Tuple[List[int], Optional[int]]:
            fringe: List[int] = []
            for v in level:
                for w in self._adj[v]:
                    if w not in mine:
                        mine[w] = v
                        fringe.append(w)
                    if w in other:
                        return fringe, w
            return fringe, None

        forward, reverse, meet = [a], [b], None
        while forward and reverse and meet is None:
            if len(forward) <= len(reverse):
                forward, meet = grow(forward, pred, succ)
            else:
                reverse, meet = grow(reverse, succ, pred)
        if meet is None:
            raise ValueError(f"no path between {a} and {b}")
        path: List[int] = []
        node: Optional[int] = meet
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[meet]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def __repr__(self) -> str:
        return (f"ArchitectureGraph({self.name!r}, qubits={self.num_qubits}, "
                f"edges={self.num_edges})")
