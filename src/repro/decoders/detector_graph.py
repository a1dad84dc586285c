"""Space-time detector graph for syndrome decoding.

Nodes are *detectors* — parity comparisons between consecutive syndrome
rounds (plus the round-0 comparison against the known initial state).
Edges are elementary error mechanisms:

* **space edges** — a data-qubit error flips the one or two plaquettes
  containing that qubit in the decode basis; qubits touching a single
  plaquette connect it to the virtual **boundary**;
* **time edges** — a syndrome-measurement error flips the same detector
  in two consecutive rounds.

Every edge carries a ``logical_flip`` flag: whether the corresponding
data error anticommutes with the logical readout operator.  The decoder
sums these flags along its correction to fix the raw readout parity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codes.base import MemoryExperiment, StabilizerCode

#: Virtual boundary node id (all real nodes are >= 0).
BOUNDARY = -1

#: Weight assigned to edges inside an estimated strike region by the
#: burst-adaptive reweighting (:mod:`repro.detect.recovery`): small
#: enough that paths through the blast are near-free (erasure-style),
#: large enough that dozens of chained near-zero edges cannot undercut
#: a single unit edge's tie-breaking epsilon.
ERASED_WEIGHT = 1e-3


@dataclass(frozen=True)
class DetectorEdge:
    """One error mechanism connecting two detectors (or a boundary)."""

    u: int
    v: int
    qubit: Optional[int]      # data qubit for space edges, None for time
    logical_flip: bool
    weight: float = 1.0
    #: Correlated space-time (hook) mechanism: a data error striking
    #: mid-round, after one adjacent plaquette measured but before the
    #: other did, flips the two detectors diagonally across rounds.
    hook: bool = False


class DetectorGraph:
    """Decoding graph for a memory experiment in a given basis.

    Parameters
    ----------
    code:
        The code geometry.
    rounds:
        Number of syndrome rounds in the experiment.
    basis:
        ``"Z"`` to decode Z-plaquette syndromes (bit-flip errors) — the
        relevant graph for the paper's Z-basis memory — or ``"X"``.
    hook_edges:
        Add correlated space-time (hook) edges: a data error landing
        between the two adjacent plaquettes' measurements flips one
        detector this round and the other next round, so each bulk
        qubit also contributes the two diagonal mechanisms
        ``(r, p1)–(r+1, p2)`` and ``(r, p2)–(r+1, p1)``.  Off by
        default (the hook-free graph is the historical baseline and
        the flag changes decode results).
    """

    def __init__(self, code: StabilizerCode, rounds: int, basis: str = "Z",
                 hook_edges: bool = False) -> None:
        if basis not in ("Z", "X"):
            raise ValueError("basis must be 'Z' or 'X'")
        self.code = code
        self.rounds = int(rounds)
        self.basis = basis
        self.hook_edges = bool(hook_edges)
        plaquettes = (code.z_plaquettes if basis == "Z"
                      else code.x_plaquettes)
        readout_support = frozenset(
            code.logical_z_support if basis == "Z"
            else code.logical_x_support)
        self.num_plaquettes = len(plaquettes)
        self.num_nodes = self.num_plaquettes * self.rounds

        # Data qubit -> plaquette indices containing it.
        membership: Dict[int, List[int]] = {q: [] for q in code.data_qubits}
        for pi, support in enumerate(plaquettes):
            for q in support:
                membership[q].append(pi)

        self.edges: List[DetectorEdge] = []
        #: Data qubits whose errors flip no plaquette in this basis
        #: (undetectable; they bound the code's correctable set).
        self.undetectable: List[int] = []
        for r in range(self.rounds):
            for q, plist in membership.items():
                flip = q in readout_support
                if len(plist) == 2:
                    self.edges.append(DetectorEdge(
                        self.node_id(r, plist[0]), self.node_id(r, plist[1]),
                        qubit=q, logical_flip=flip))
                elif len(plist) == 1:
                    self.edges.append(DetectorEdge(
                        self.node_id(r, plist[0]), BOUNDARY,
                        qubit=q, logical_flip=flip))
                elif r == 0:
                    self.undetectable.append(q)
        for r in range(self.rounds - 1):
            for p in range(self.num_plaquettes):
                self.edges.append(DetectorEdge(
                    self.node_id(r, p), self.node_id(r + 1, p),
                    qubit=None, logical_flip=False))
        if self.hook_edges:
            # Correlated hooks: a bulk data error striking after one
            # adjacent plaquette measured but before the other flips
            # the pair diagonally across the round boundary.
            for r in range(self.rounds - 1):
                for q, plist in membership.items():
                    if len(plist) != 2:
                        continue
                    flip = q in readout_support
                    p1, p2 = plist
                    self.edges.append(DetectorEdge(
                        self.node_id(r, p1), self.node_id(r + 1, p2),
                        qubit=q, logical_flip=flip, hook=True))
                    self.edges.append(DetectorEdge(
                        self.node_id(r, p2), self.node_id(r + 1, p1),
                        qubit=q, logical_flip=flip, hook=True))

        #: Everything derived lazily from the edges and their weights
        #: (:meth:`derived`); a reweighted copy starts with its own.
        self._derived: Dict[str, Any] = {}

    def derived(self, name: str,
                build: Callable[["DetectorGraph"], Any]) -> Any:
        """``build(self)``, computed on first use and kept under
        ``name`` for the life of this graph.

        Holds every table that depends only on the graph (edges,
        weights): the shortest paths, and the tables shaped by their
        one consumer — union-find's growth tables, the matcher's bucket
        tables.  Hanging those here rather than on the decoder means a
        decoder rebound to another graph (``dataclasses.replace(
        decoder, graph=...)``, the ``reweight`` recovery policy) can
        never read the tables of the graph it left, and
        :meth:`reweighted` forgets them all by starting an empty
        dict."""
        table = self._derived.get(name)
        if table is None:
            table = self._derived[name] = build(self)
        return table

    # ------------------------------------------------------------------
    # Reweighting (burst-adaptive decoding)
    # ------------------------------------------------------------------
    def reweighted(self, weight_for: Callable[["DetectorEdge"], float]
                   ) -> "DetectorGraph":
        """A copy of this graph with per-edge weights from ``weight_for``.

        The geometry (nodes, edges, logical flips) is shared; only the
        weights — and therefore the lazily rebuilt shortest-path tables
        — differ.  This is the mechanism behind erasure-style recovery:
        assign :data:`ERASED_WEIGHT` inside an estimated strike region
        and the decoders prefer matching through the damaged volume.
        """
        g = object.__new__(DetectorGraph)
        g.code = self.code
        g.rounds = self.rounds
        g.basis = self.basis
        g.hook_edges = self.hook_edges
        g.num_plaquettes = self.num_plaquettes
        g.num_nodes = self.num_nodes
        g.undetectable = self.undetectable
        g.edges = []
        for e in self.edges:
            w = float(weight_for(e))
            if w <= 0.0:
                raise ValueError("edge weights must be positive")
            g.edges.append(e if w == e.weight else replace(e, weight=w))
        g._derived = {}
        return g

    @property
    def unit_weights(self) -> bool:
        """True when every edge still carries the default weight 1."""
        return self.derived(
            "unit_weights",
            lambda g: all(e.weight == 1.0 for e in g.edges))

    # ------------------------------------------------------------------
    def node_id(self, round_index: int, plaquette_index: int) -> int:
        return round_index * self.num_plaquettes + plaquette_index

    def node_round_plaquette(self, node: int) -> Tuple[int, int]:
        return divmod(node, self.num_plaquettes)[0], node % self.num_plaquettes

    # ------------------------------------------------------------------
    # Detection events
    # ------------------------------------------------------------------
    def detection_events(self, syndromes: np.ndarray) -> np.ndarray:
        """Detector values from raw syndromes, shape ``(B, rounds, P)``.

        Round 0 compares against the known initial eigenstate when the
        decode basis matches the preparation basis (the paper's setup);
        later rounds compare consecutive measurements.  When the decode
        basis is the *dual* of the preparation (round-0 outcomes are
        random projections) the round-0 detector is suppressed.
        """
        det = syndromes.copy()
        det[:, 1:, :] ^= syndromes[:, :-1, :]
        return det

    def dual_detection_events(self, syndromes: np.ndarray) -> np.ndarray:
        """Detectors for the dual-basis graph: no round-0 reference."""
        det = self.detection_events(syndromes)
        det[:, 0, :] = 0
        return det

    # ------------------------------------------------------------------
    # All-pairs shortest paths with logical parity
    # ------------------------------------------------------------------
    def _build_paths(self) -> Tuple[np.ndarray, np.ndarray]:
        """Shortest paths from every node, tracking logical parity:
        ``(distances, parities)``.

        Unit-weight graphs (the static decode) use BFS; reweighted
        graphs use Dijkstra over the edge weights.  Distances/parities
        to the boundary use a virtual node appended at ``num_nodes``.
        """
        n = self.num_nodes
        bidx = n
        if self.unit_weights:
            adj: List[List[Tuple[int, bool]]] = [[] for _ in range(n + 1)]
            for e in self.edges:
                u = e.u if e.u != BOUNDARY else bidx
                v = e.v if e.v != BOUNDARY else bidx
                adj[u].append((v, e.logical_flip))
                adj[v].append((u, e.logical_flip))
            dist = np.full((n, n + 1), np.inf)
            parity = np.zeros((n, n + 1), dtype=np.uint8)
            for src in range(n):
                dist[src, src] = 0
                queue = [src]
                head = 0
                while head < len(queue):
                    u = queue[head]
                    head += 1
                    for v, flip in adj[u]:
                        if not np.isfinite(dist[src, v]):
                            dist[src, v] = dist[src, u] + 1
                            parity[src, v] = parity[src, u] ^ int(flip)
                            if v != bidx:  # boundary absorbs: don't expand
                                queue.append(v)
            return dist, parity
        wadj: List[List[Tuple[int, float, bool]]] = [[] for _ in range(n + 1)]
        for e in self.edges:
            u = e.u if e.u != BOUNDARY else bidx
            v = e.v if e.v != BOUNDARY else bidx
            wadj[u].append((v, e.weight, e.logical_flip))
            wadj[v].append((u, e.weight, e.logical_flip))
        dist = np.full((n, n + 1), np.inf)
        parity = np.zeros((n, n + 1), dtype=np.uint8)
        for src in range(n):
            dist[src, src] = 0
            heap = [(0.0, src)]
            done = np.zeros(n + 1, dtype=bool)
            while heap:
                d, u = heapq.heappop(heap)
                if done[u]:
                    continue
                done[u] = True
                if u == bidx:  # boundary absorbs: do not expand
                    continue
                for v, w, flip in wadj[u]:
                    nd = d + w
                    if nd < dist[src, v]:
                        dist[src, v] = nd
                        parity[src, v] = parity[src, u] ^ int(flip)
                        heapq.heappush(heap, (nd, v))
        return dist, parity

    @property
    def distances(self) -> np.ndarray:
        """``(num_nodes, num_nodes + 1)``; last column is the boundary."""
        return self.derived("paths", DetectorGraph._build_paths)[0]

    @property
    def parities(self) -> np.ndarray:
        """Logical parity along a BFS shortest path (same shape)."""
        return self.derived("paths", DetectorGraph._build_paths)[1]

    def distance_between(self, u: int, v: int = BOUNDARY) -> float:
        col = self.num_nodes if v == BOUNDARY else v
        return float(self.distances[u, col])

    def parity_between(self, u: int, v: int = BOUNDARY) -> int:
        col = self.num_nodes if v == BOUNDARY else v
        return int(self.parities[u, col])

    def __repr__(self) -> str:
        return (f"DetectorGraph({self.code.name}, basis={self.basis}, "
                f"nodes={self.num_nodes}, edges={len(self.edges)}, "
                f"undetectable={len(self.undetectable)})")
