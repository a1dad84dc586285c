"""Oracles of ``decoders/_unionfind.c`` and ``decoders/_blossom.c``, and
of the decode wrapper's pattern dedup.

* :func:`uf_decode_pattern` — union-find on one pattern in pure
  Python: cluster growth on a disjoint-set forest (:class:`_DSU`), then
  peeling a spanning forest of the grown edges, leaves inward.  The
  native grow + peel must give its parity on every pattern; its peel
  order is the iteration order of a Python ``set`` of grown edges.
* :func:`dp_match` — the bitmask recursion MWPM runs on patterns of at
  most ``_DP_LIMIT`` defects: the lowest unmatched defect goes to the
  boundary or to one of the others, the first strict minimum wins.
  ``repro_dp_match`` must return its cost and parity bit for bit.
* :func:`nx_pairs` / :func:`nx_match` — NetworkX's
  ``max_weight_matching`` on the pattern's negated-weight graph with
  per-event boundary copies: ``repro_blossom_match`` must return the
  same pairs, not merely a matching of equal weight.
* :func:`axis0_unique_keys` — the pattern dedup as ``np.unique`` over
  rows (a structured sort, one field per byte) and ``row.tobytes()``
  per distinct row: :func:`~repro.decoders.batch.unique_keys` must
  return its rows, order, inverse and cache keys.
  :func:`axis0_dedup` puts it under every decoder.

:func:`oracle_decoders` runs both decoders on these oracles, for tests
that hold campaign counts to them.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest

from repro.decoders import MWPMDecoder, UnionFindDecoder, unionfind
from repro.decoders import base as decoder_base
from repro.decoders.detector_graph import BOUNDARY
from repro.decoders.matching import _BOUNDARY_BIAS, _DP_LIMIT

#: Completion slack for float growth accumulation (half-steps are exact
#: binary floats on unit graphs; weighted residual chains may not be) —
#: the kernel's ``GROWTH_EPS``.
_GROWTH_EPS = 1e-9


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


def uf_decode_pattern(decoder, detector_bits: np.ndarray) -> int:
    """One pattern through union-find in pure Python, on ``decoder``'s
    graph and growth rule — ``UnionFindDecoder._decode_patterns``'
    oracle, one pattern at a time."""
    defects = set(int(i) for i in np.nonzero(detector_bits)[0])
    if not defects:
        return 0
    g = decoder.graph
    n = g.num_nodes
    bnode = n  # virtual boundary index
    tables = g.derived("union-find", unionfind._growth_tables)
    edges = tables.edges

    dsu = _DSU(n + 1)
    dsu.boundary[bnode] = True
    for d in defects:
        dsu.parity[d] = 1
    # Growth target per edge: its weight under weight-aware growth,
    # one unit otherwise — on unit graphs the two coincide and every
    # step below is exactly 0.5, reproducing the legacy half-steps.
    weighted = decoder.weighted_growth and not g.unit_weights
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
    guard_limit = unionfind._guard_limit(g, tables, weighted)
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


def dp_match(events: Tuple[int, ...], dist: np.ndarray, parity: np.ndarray,
              bcol: int) -> Tuple[float, int]:
    """Exact min-weight matching via bitmask DP, as a memoised
    recursion — ``repro_dp_match``'s oracle, cost and parity, ties
    included.

    Each event is either paired with another event or matched to the
    boundary.  Returns ``(total weight, correction parity)``.
    """
    k = len(events)
    full = (1 << k) - 1
    INF = float("inf")
    # memo[mask] = (cost, parity) for the unmatched set ``mask``.
    memo: Dict[int, Tuple[float, int]] = {0: (0.0, 0)}

    def solve(mask: int) -> Tuple[float, int]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        i = (mask & -mask).bit_length() - 1  # lowest unmatched event
        ei = events[i]
        # Option 1: match i to the boundary (epsilon-penalised so ties
        # resolve toward defect pairing).
        rest_cost, rest_par = solve(mask & ~(1 << i))
        best = (dist[ei, bcol] + _BOUNDARY_BIAS + rest_cost,
                int(parity[ei, bcol]) ^ rest_par)
        # Option 2: pair i with some j.
        rem = mask & ~(1 << i)
        mm = rem
        while mm:
            j = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            ej = events[j]
            d = dist[ei, ej]
            if np.isfinite(d):
                c, p = solve(rem & ~(1 << j))
                cand = (d + c, int(parity[ei, ej]) ^ p)
                if cand[0] < best[0]:
                    best = cand
        memo[mask] = best
        return best

    return solve(full)


def nx_pairs(events: Tuple[int, ...], dist: np.ndarray, bcol: int) -> set:
    """NetworkX blossom on the pattern's negated-weight graph: the
    matched pairs of nodes ``("e", i)`` (event ``i``) and ``("b", i)``
    (its boundary copy), oriented as ``max_weight_matching`` returns
    them."""
    import networkx as nx

    k = len(events)
    g = nx.Graph()
    for i in range(k):
        g.add_node(("e", i))
        g.add_node(("b", i))
        g.add_edge(("e", i), ("b", i),
                   weight=-float(dist[events[i], bcol]) - _BOUNDARY_BIAS)
        for j in range(i + 1, k):
            d = dist[events[i], events[j]]
            if np.isfinite(d):
                g.add_edge(("e", i), ("e", j), weight=-float(d))
            g.add_edge(("b", i), ("b", j), weight=0.0)
    return nx.max_weight_matching(g, maxcardinality=True)


def nx_match(events: Tuple[int, ...], dist: np.ndarray, parity: np.ndarray,
              bcol: int) -> Tuple[float, int]:
    """Exact min-weight matching via NetworkX blossom (:func:`nx_pairs`)
    — ``repro_blossom_match``'s oracle."""
    total = 0.0
    corr = 0
    for a, b in nx_pairs(events, dist, bcol):
        if a[0] == "b" and b[0] == "b":
            continue
        if a[0] == "e" and b[0] == "e":
            total += float(dist[events[a[1]], events[b[1]]])
            corr ^= int(parity[events[a[1]], events[b[1]]])
        else:
            e = a if a[0] == "e" else b
            total += float(dist[events[e[1]], bcol])
            corr ^= int(parity[events[e[1]], bcol])
    return total, corr


def mwpm_parity(graph, detector_bits: np.ndarray) -> int:
    """One pattern through MWPM's oracles on ``graph``: :func:`dp_match`
    up to ``_DP_LIMIT`` defects, :func:`nx_match` past them."""
    events = tuple(int(i) for i in np.flatnonzero(detector_bits))
    if not events:
        return 0
    match = dp_match if len(events) <= _DP_LIMIT else nx_match
    return match(events, graph.distances, graph.parities,
                 graph.num_nodes)[1]


@contextlib.contextmanager
def oracle_decoders():
    """Every ``MWPMDecoder`` and ``UnionFindDecoder`` inside decodes its
    patterns one at a time on the oracles instead of the kernels."""
    def loop(decode):
        def hook(decoder, bits):
            return np.array([decode(decoder, row) for row in bits],
                            dtype=np.uint8)
        return hook

    with pytest.MonkeyPatch.context() as m:
        m.setattr(MWPMDecoder, "_decode_patterns",
                  loop(lambda decoder, row: mwpm_parity(decoder.graph, row)))
        m.setattr(UnionFindDecoder, "_decode_patterns",
                  loop(uf_decode_pattern))
        yield


def axis0_unique_keys(keys: np.ndarray):
    """``(uniq, inverse, key_bytes)`` of ``(N, nbytes)`` uint8 pattern
    keys, the way ``Decoder._pattern_parities`` deduplicated them before
    the void-column sort."""
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    return uniq, inverse.reshape(-1), [row.tobytes() for row in uniq]


@contextlib.contextmanager
def axis0_dedup():
    """Every decoder inside deduplicates its pattern keys with
    :func:`axis0_unique_keys`."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(decoder_base, "unique_keys", axis0_unique_keys)
        yield


def decode_cache(decoder):
    """The decoder's live syndrome cache: ``None`` when caching is off
    or nothing has been decoded yet."""
    if not getattr(decoder, "cache_decodes", True):
        return None
    return decoder.__dict__.get("_decode_cache")


def distance_between(graph, u: int, v: int = BOUNDARY) -> float:
    """Shortest-path weight from node ``u`` to ``v`` (the boundary by
    default) on a :class:`~repro.decoders.DetectorGraph`."""
    return float(graph.distances[u, graph.num_nodes if v == BOUNDARY else v])


def parity_between(graph, u: int, v: int = BOUNDARY) -> int:
    """Logical parity along that shortest path."""
    return int(graph.parities[u, graph.num_nodes if v == BOUNDARY else v])


def node_round_plaquette(graph, node: int) -> Tuple[int, int]:
    """``(round, plaquette)`` of a detector node."""
    return divmod(node, graph.num_plaquettes)
