"""Union-find decoder (Delfosse–Nickerson), the almost-linear-time
alternative the paper cites ([62]) but leaves out of scope.

Implemented here as an extension/ablation: clusters grow from flagged
detectors in synchronized steps, merging until every cluster holds an
even number of defects or touches the boundary; a peeling pass then
extracts a correction whose syndrome matches the defects.  Accuracy is
slightly below MWPM (by design).

Two paths, one answer.  :meth:`UnionFindDecoder._decode_pattern` is the
pure-Python reference: about 130-155 us a pattern on the strike
patterns of an XXZZ (5,5) memory (60 detectors, 173 edges, ~8
defects), which made it slower than the batched MWPM kernel there.
:meth:`UnionFindDecoder._decode_patterns`, the batch hook, decodes a
block's missed patterns in two calls to a C kernel
(``_unionfind.c``): one grows every pattern's clusters, one peels
them — about 7 us a pattern on the same patterns (2.2 growing, 1.2
peeling, the rest the peel order's round trip through Python ``set``
objects below), with parities bit-identical to the reference's.  A
process with no compiler decodes through the reference, counted
(``decode.uf_python_patterns`` vs ``decode.uf_native_patterns``).

Growth is **weight-aware** by default: an edge completes when the
accumulated growth reaches its weight, and each synchronized step
advances by the smallest frontier residual (capped at half a unit
edge), so low-weight (likely) edges — e.g. the graded blast skirt of
burst-adaptive reweighting — are crossed before unit edges.  On
unit-weight graphs every step is exactly half an edge and the decoder
is bit-identical to the legacy two-half-step growth;
``weighted_growth=False`` pins that legacy behaviour on weighted
graphs too (reacting only to fully erased edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from .. import obs
from .base import Decoder
from .detector_graph import BOUNDARY, ERASED_WEIGHT, DetectorGraph

#: Completion slack for float growth accumulation (half-steps are exact
#: binary floats on unit graphs; weighted residual chains may not be).
_GROWTH_EPS = 1e-9

#: Patterns the batch hook decoded on the native kernel / through the
#: per-pattern reference (no kernel in this process).
_OBS_NATIVE = obs.counter("decode.uf_native_patterns")
_OBS_PYTHON = obs.counter("decode.uf_python_patterns")


class _DSU:
    """Disjoint-set union with cluster metadata (defect parity, boundary)."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n
        self.parity = [0] * n        # defects mod 2 in the cluster
        self.boundary = [False] * n  # cluster touches the boundary

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.parity[ra] ^= self.parity[rb]
        self.boundary[ra] |= self.boundary[rb]
        return ra


class _GrowthTables(NamedTuple):
    """What cluster growth reads from a graph, per edge index — built
    once per :class:`DetectorGraph` (``graph.derived``), not per
    pattern."""

    #: ``(u, v, logical_flip)`` with the boundary as node ``num_nodes``.
    edges: List[Tuple[int, int, bool]]
    #: Weight-aware growth targets (weights floored at the erasure
    #: weight) and the legacy one-unit targets.
    weights: List[float]
    units: List[float]
    #: Edges the graph marks as erased: pre-grown before growth starts.
    erased: List[int]
    max_weight: float


def _growth_tables(graph: DetectorGraph) -> _GrowthTables:
    bnode = graph.num_nodes
    weights = [max(e.weight, ERASED_WEIGHT) for e in graph.edges]
    return _GrowthTables(
        edges=[(e.u if e.u != BOUNDARY else bnode,
                e.v if e.v != BOUNDARY else bnode,
                e.logical_flip) for e in graph.edges],
        weights=weights,
        units=[1.0] * len(weights),
        erased=[ei for ei, e in enumerate(graph.edges)
                if e.weight <= ERASED_WEIGHT],
        max_weight=max(weights, default=1.0))


class _KernelTables(NamedTuple):
    """:class:`_GrowthTables` as the native kernel reads them: C-ordered
    arrays built once per graph (``graph.derived``), held by ``arrays``
    and handed over by address."""

    u: int              # int64 endpoints, the boundary as ``num_nodes``
    v: int
    flip: int           # uint8 logical flips
    weights: int        # float64 growth targets, weighted and unit
    units: int
    erased: int         # int64 edge indices
    num_edges: int
    num_erased: int
    #: :func:`_guard_limit` of unit and of weighted growth.
    guard_limits: Tuple[int, int]
    arrays: Tuple[np.ndarray, ...]


def _kernel_tables(graph: DetectorGraph) -> _KernelTables:
    tables = graph.derived("union-find", _growth_tables)
    edges = np.array(tables.edges, dtype=np.int64).reshape(-1, 3)
    arrays = (np.ascontiguousarray(edges[:, 0]),
              np.ascontiguousarray(edges[:, 1]),
              edges[:, 2].astype(np.uint8),
              np.array(tables.weights, dtype=np.float64),
              np.array(tables.units, dtype=np.float64),
              np.array(tables.erased, dtype=np.int64))
    return _KernelTables(
        *(a.ctypes.data for a in arrays), num_edges=len(tables.edges),
        num_erased=len(tables.erased),
        guard_limits=(_guard_limit(graph, tables, False),
                      _guard_limit(graph, tables, True)),
        arrays=arrays)


def _guard_limit(graph: DetectorGraph, tables: _GrowthTables,
                 weighted: bool) -> int:
    """Synchronized growth steps after which a pattern has failed to
    converge."""
    max_target = tables.max_weight if weighted else 1.0
    return (4 * (graph.num_nodes + len(tables.edges) + 2)
            * max(1, int(math.ceil(max_target))))


@dataclass
class UnionFindDecoder(Decoder):
    """Union-find decoder bound to a detector graph.

    ``use_final_data`` mirrors :class:`~repro.decoders.matching.
    MWPMDecoder`; ``cache_decodes`` enables the cross-batch syndrome-
    dedup cache; ``weighted_growth`` selects weight-aware cluster
    growth (module docstring — no effect on unit-weight graphs).
    """

    graph: DetectorGraph
    use_final_data: bool = True
    cache_decodes: bool = True
    weighted_growth: bool = True

    @property
    def name(self) -> str:
        return "union-find"

    # ------------------------------------------------------------------
    def _decode_pattern(self, detector_bits: np.ndarray) -> int:
        defects = set(int(i) for i in np.nonzero(detector_bits)[0])
        if not defects:
            return 0
        g = self.graph
        n = g.num_nodes
        bnode = n  # virtual boundary index
        tables = g.derived("union-find", _growth_tables)
        edges = tables.edges

        dsu = _DSU(n + 1)
        dsu.boundary[bnode] = True
        for d in defects:
            dsu.parity[d] = 1
        # Growth target per edge: its weight under weight-aware growth,
        # one unit otherwise — on unit graphs the two coincide and every
        # step below is exactly 0.5, reproducing the legacy half-steps.
        weighted = self.weighted_growth and not g.unit_weights
        target = tables.weights if weighted else tables.units
        growth = [0.0] * len(edges)
        grown: Set[int] = set()

        # Erasure pre-growth (Delfosse–Zémor): edges the graph marks as
        # near-free — the burst-adaptive reweighting of an estimated
        # strike region — start fully grown, seeding clusters that span
        # the damaged volume before weighted growth begins.
        for ei in tables.erased:
            u, v, _ = edges[ei]
            growth[ei] = target[ei]
            grown.add(ei)
            dsu.union(u, v)

        def odd_roots() -> Set[int]:
            roots = set()
            for d in defects:
                r = dsu.find(d)
                if dsu.parity[r] == 1 and not dsu.boundary[r]:
                    roots.add(r)
            return roots

        # Growth phase.
        guard = 0
        guard_limit = _guard_limit(g, tables, weighted)
        while True:
            roots = odd_roots()
            if not roots:
                break
            guard += 1
            if guard > guard_limit:  # pragma: no cover
                raise RuntimeError("union-find growth failed to converge")
            # Every edge incident to an odd cluster grows one step.
            to_grow = []
            for ei, (u, v, _) in enumerate(edges):
                if growth[ei] >= target[ei] - _GROWTH_EPS:
                    continue
                if dsu.find(u) in roots or dsu.find(v) in roots:
                    to_grow.append(ei)
            # Synchronized step: half a unit edge, shortened to the
            # smallest frontier residual so the cheapest edge completes
            # exactly (0.5 always, on unit graphs).
            step = 0.5
            if weighted and to_grow:
                step = min(step, min(target[ei] - growth[ei]
                                     for ei in to_grow))
                step = max(step, _GROWTH_EPS)
            completed = []
            for ei in to_grow:
                growth[ei] += step
                if growth[ei] >= target[ei] - _GROWTH_EPS:
                    completed.append(ei)
            # Merge defect clusters with each other before letting the
            # boundary absorb them: at equal weight, pairing two defects
            # is the better logical class (it is what MWPM would pick).
            for ei in completed:
                u, v, _ = edges[ei]
                if bnode not in (u, v):
                    grown.add(ei)
                    dsu.union(u, v)
            for ei in completed:
                u, v, _ = edges[ei]
                if bnode in (u, v):
                    other = u if v == bnode else v
                    r = dsu.find(other)
                    if dsu.parity[r] == 1 and not dsu.boundary[r]:
                        grown.add(ei)
                        dsu.union(u, v)
                    else:
                        # Cluster no longer needs the boundary; hold the
                        # edge half-grown in case it turns odd again.
                        growth[ei] = target[ei] / 2.0

        # Peeling phase: spanning forest of grown edges, leaves inward.
        adj: Dict[int, List[Tuple[int, int]]] = {}
        for ei in grown:
            u, v, _ = edges[ei]
            adj.setdefault(u, []).append((v, ei))
            adj.setdefault(v, []).append((u, ei))

        visited: Set[int] = set()
        corr = 0
        defect_flag = {d: True for d in defects}

        # Root each tree at the boundary when present so dangling defects
        # peel toward it.
        order: List[Tuple[int, Optional[int], Optional[int]]] = []
        seeds = [bnode] + [u for u in adj if u != bnode]
        for seed in seeds:
            if seed in visited or seed not in adj:
                continue
            visited.add(seed)
            stack = [(seed, None, None)]
            comp_order = []
            while stack:
                u, pedge, pnode = stack.pop()
                comp_order.append((u, pedge, pnode))
                for v, ei in adj.get(u, ()):  # tree edges only once
                    if v not in visited:
                        visited.add(v)
                        stack.append((v, ei, u))
            order.extend(comp_order)

        # Peel in reverse DFS order: each leaf with an active defect
        # consumes its parent edge.
        for u, pedge, pnode in reversed(order):
            if pedge is None:
                continue
            if defect_flag.get(u, False):
                _, _, flip = edges[pedge]
                corr ^= int(flip)
                defect_flag[u] = False
                if pnode != bnode:
                    defect_flag[pnode] = not defect_flag.get(pnode, False)
        return corr

    def _decode_patterns(self, bits: np.ndarray) -> np.ndarray:
        """Decode ``(N, D)`` detector patterns in two native calls.

        ``repro_uf_grow`` returns each pattern's ``grown.add`` sequence;
        each is poured into a fresh ``set`` here, so CPython defines the
        peel order exactly as it does for :meth:`_decode_pattern`, and
        ``repro_uf_peel`` peels in that order — every parity equals the
        reference's.  Without the kernel (or on patterns wider than the
        graph) the reference decodes them one by one."""
        from . import _native   # not on ``import repro``

        g = self.graph
        n = g.num_nodes
        kernel = _native.kernel()
        if kernel is None or bits.shape[1] > n:
            _OBS_PYTHON.inc(bits.shape[0])
            return super()._decode_patterns(bits)
        _OBS_NATIVE.inc(bits.shape[0])
        weighted = self.weighted_growth and not g.unit_weights
        defect_ptr, defects = _native.csr_rows(bits)
        tables = g.derived("union-find/native", _kernel_tables)
        grown_ptr, grown = kernel.grow(n, tables, weighted, defect_ptr,
                                       defects)
        sequence, bounds = grown.tolist(), grown_ptr.tolist()
        order, order_ptr = [], [0]
        for lo, hi in zip(bounds, bounds[1:]):
            order.extend(set(sequence[lo:hi]))
            order_ptr.append(len(order))
        return kernel.peel(n, tables, defect_ptr, defects, order_ptr, order)
