"""Minimum-weight perfect-matching decoder (paper §II-D).

Flagged detectors are matched pairwise (or to the boundary) so that the
total shortest-path weight is minimal; the correction applied to the
raw readout is the XOR of the logical parities along the matched paths.

Two exact matching rules; a pattern's defect count alone picks the
rule, and a host's compiler only picks which of two identical
implementations of it runs:

* up to :data:`_DP_LIMIT` defects — a bitmask dynamic program over the
  sets of still-unmatched defects: the lowest unmatched defect goes to
  the boundary or to one of the others.  :func:`_dp_match` is that
  recurrence written as a memoised recursion, one pattern at a time;
  it is the reference the tests compare against and has no production
  caller.  ``_blossom.c``'s ``repro_dp_match`` runs the same
  recursion natively for all of a call's light patterns in one
  foreign call (:func:`_dp_parities`); a process without a C compiler
  runs :func:`_dp_match_batch` instead, the *same* recurrence
  evaluated bottom-up in numpy for a whole bucket of patterns at once
  (below);
* more defects — blossom (Edmonds, in Galil's primal-dual form) on the
  negated-weight event graph with per-event boundary copies.
  :func:`_nx_match` hands that graph to NetworkX's
  ``max_weight_matching``, one pattern at a time: the reference, and
  the path of a process without a C compiler (NetworkX is imported
  there and nowhere else on the campaign path).  ``_blossom.c``'s
  ``repro_blossom_match`` matches all of a call's heavy patterns in
  one foreign call, about 30 us a pattern against NetworkX's 4 ms on
  the ``strike_decode`` patterns of 17–21 defects.

Both kernels live in one library, loaded by
:func:`~repro.decoders._native.blossom` on a process's first decode,
never on import.  **No flag selects an implementation**, because none
can move a count: the native DP adds the recursion's floats in the
recursion's order and keeps the first strict minimum, so its cost and
parity are the recursion's bit for bit (it only adds, so there is no
multiply a compiler could contract into a fused multiply-add), and the
native blossom returns NetworkX's own matching (below).

**Why the blossom port is exact.**  A minimum-weight matching is
rarely unique on these graphs, so "the same weight" would not keep the
counts; the kernel returns NetworkX's own matching, pair for pair.  It
builds :func:`_nx_pairs`' graph node for node (NetworkX's node order,
each adjacency list in insertion order, ``0.0`` between boundary
copies, no edge for an infinite distance) and repeats every choice the
reference makes in the reference's order: its dict and list orders
(``blossomparent``, ``blossomdual``, ``bestedgeto``, with deletions),
the LIFO queue, strict ``<`` in every least-slack and delta choice,
and its float operations (these weights are floats, so
``allinteger`` is false: slack ``(u + v) - 2 w``, ``delta / 2.0``).
The parity is XORed over the pairs oriented as NetworkX returns them.
NetworkX is the oracle in the tests, on generated and recorded
patterns alike.

**The numpy DP's lattice.**  Because the recursion always removes
the *lowest* unmatched defect, of the ``2**k`` subsets of ``k``
defects it only ever visits ``Fib(k + 2)`` (2 584 at ``k = 16``, with
18 687 options between them), and which ones depends on ``k`` only.  :func:`_lattice`
enumerates them once per ``k``, layered by how many defects are still
unmatched: a state of ``c`` unmatched defects has exactly ``c`` options
(boundary, or one of the ``c - 1`` partners) and every option lands
one or two layers down.  So a layer is one ``(patterns, states, c)``
gather-add of "option cost + cost of the state it leads to" and one
``argmin`` over the option axis — numpy does per layer what the
recursion does per option.

**Why the numpy DP's answer is the same bit for bit, ties
included.**  Each
candidate is computed with the recursion's own float operations in the
recursion's order — ``(distance + _BOUNDARY_BIAS) + rest`` for the
boundary, ``distance + rest`` for a pair — and laid out in the
recursion's option order: boundary first, then partners ascending.
The recursion keeps a candidate only when it is strictly cheaper than
the best so far, i.e. it keeps the *first* minimum, which is what
``argmin`` returns.  An unreachable partner (infinite distance), which
the recursion skips, is an infinite candidate that can never be a
first minimum ahead of the boundary option.  Patterns of fewer defects
share a bucket by padding with dummy defects placed *after* the real
ones — boundary cost exactly ``0.0``, every pair distance infinite —
so every real state sees its real candidates, in order, followed by
infinite ones, and ``0.0 + x`` is ``x``.

**Why** :data:`_DP_LIMIT` **does not move.**  On a degenerate pattern
(several matchings of equal weight, of different logical parity) the
DP and blossom break the tie differently, so moving the limit — or
swapping either rule for one with another tie rule — changes
individual corrections and with them the per-point ``(shots,
errors)`` the repo benchmark pins (``benchmarks/e2e/golden.json``).
With blossom native there is also nothing left to gain by moving it:
a heavy pattern now costs about what a DP pattern does.

Identical syndromes decode identically, so shots are deduplicated
before matching (:meth:`Decoder._pattern_parities`) — a large win at
low fault intensity; under a radiation strike nearly every shot has
its own syndrome and the batch kernel is what the decode costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .. import obs
from ..obs import prof as _prof
from .base import Decoder
from .detector_graph import DetectorGraph

#: Event-count threshold below which the exact bitmask DP is used.
_DP_LIMIT = 16

#: Tie-break: at equal weight, pairing two defects (one error chain) is
#: more probable than two independent boundary chains, so boundary
#: matches carry an epsilon penalty.
_BOUNDARY_BIAS = 1e-6

#: Patterns of up to this many defects share one dummy-padded bucket
#: (a bucket costs ~its layer count in numpy calls whatever it holds,
#: and at low fault intensity a block misses only a handful of light
#: patterns); heavier patterns are bucketed by exact defect count.
_PAD_LIMIT = 6

#: A bucket is matched in slices of at most this many (pattern,
#: option) candidates, which bounds the kernel's working set — about
#: 20 bytes per candidate — whatever the block holds.
_SLICE_CANDIDATES = 1 << 18

#: Heaviest defect count of each bucket, after the zero-defect
#: patterns (which decode to no correction).
_BUCKET_TOPS = (0, *range(_PAD_LIMIT, _DP_LIMIT + 1))

#: Patterns of at most :data:`_DP_LIMIT` defects matched by the native
#: DP / by :func:`_bucket_parities` (no kernel in this process).
_OBS_DP_NATIVE = obs.counter("decode.dp_native_patterns")
_OBS_DP_PYTHON = obs.counter("decode.dp_python_patterns")

#: Patterns past :data:`_DP_LIMIT` matched by the native blossom /
#: through NetworkX (no kernel in this process).
_OBS_NATIVE = obs.counter("decode.blossom_native_patterns")
_OBS_PYTHON = obs.counter("decode.blossom_python_patterns")


def _dp_match(events: Tuple[int, ...], dist: np.ndarray, parity: np.ndarray,
              bcol: int) -> Tuple[float, int]:
    """Exact min-weight matching via bitmask DP — the reference
    recursion (see the module docstring).

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


def _set_bits(mask: int) -> List[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


class _Lattice(NamedTuple):
    """The states :func:`_dp_match` visits on ``k`` events, as index
    tables.

    States are numbered by layer — the empty set is state 0, the full
    set the last — and ``layers[c - 1] = (first, entry, rest)`` holds
    the states with ``c`` unmatched events, numbered from ``first``:
    ``entry[s, o]`` is where option ``o`` of state ``s`` reads a
    pattern's flattened ``(k, 1 + k)`` table (row: the state's lowest
    event; column 0, the boundary, for option 0, then the partners'
    columns ascending) and ``rest[s, o]`` is the number of the state
    that option leaves behind.
    """

    states: int
    options: int
    layers: Tuple[Tuple[int, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=None)
def _lattice(k: int) -> _Lattice:
    """The lattice for ``k`` events — a function of ``k`` alone, so
    built on first use (nothing at import) and kept."""
    by_count: List[set] = [set() for _ in range(k + 1)]
    by_count[k].add((1 << k) - 1)
    for c in range(k, 0, -1):
        for mask in by_count[c]:
            rem = mask & (mask - 1)
            by_count[c - 1].add(rem)
            for j in _set_bits(rem):
                by_count[c - 2].add(rem & ~(1 << j))
    number: Dict[int, int] = {}
    for masks in by_count:
        for mask in sorted(masks):
            number[mask] = len(number)
    layers = []
    for c in range(1, k + 1):
        masks = sorted(by_count[c])
        entry = np.empty((len(masks), c), dtype=np.intp)
        rest = np.empty((len(masks), c), dtype=np.intp)
        for s, mask in enumerate(masks):
            low = (mask & -mask).bit_length() - 1
            rem = mask & (mask - 1)
            partners = _set_bits(rem)
            entry[s] = [low * (k + 1) + col
                        for col in [0] + [j + 1 for j in partners]]
            rest[s] = [number[rem]] + [number[rem & ~(1 << j)]
                                       for j in partners]
        for table in (entry, rest):
            table.setflags(write=False)
        layers.append((number[masks[0]], entry, rest))
    return _Lattice(states=len(number),
                    options=sum(entry.size for _, entry, _ in layers),
                    layers=tuple(layers))


def _dp_match_batch(cost: np.ndarray, flip: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_dp_match` for ``P`` patterns of ``k`` events at once.

    ``cost`` and ``flip`` are ``(P, k, 1 + k)``: per pattern, each
    event's boundary-biased boundary distance (column 0) and its
    distances to the pattern's events (columns 1..k), and the logical
    parities along those paths.  Returns ``(total weight, correction
    parity)``, each ``(P,)`` — bit-identical to the recursion on every
    pattern (module docstring).
    """
    P, k, _ = cost.shape
    lattice = _lattice(k)
    cost = cost.reshape(P, -1)
    flip = flip.reshape(P, -1)
    best = np.empty((P, lattice.states))
    best_flip = np.empty((P, lattice.states), dtype=np.uint8)
    best[:, 0] = 0.0
    best_flip[:, 0] = 0
    rows = np.arange(P)[:, None]
    for first, entry, rest in lattice.layers:
        states, options = entry.shape
        cand = cost[:, entry] + best[:, rest]       # (P, states, options)
        cand_flip = flip[:, entry] ^ best_flip[:, rest]
        # Each state's first minimum, as a position on the flattened
        # (states * options) axis.
        pick = cand.argmin(axis=2) + np.arange(0, entry.size, options)
        best[:, first:first + states] = cand.reshape(P, -1)[rows, pick]
        best_flip[:, first:first + states] = \
            cand_flip.reshape(P, -1)[rows, pick]
    return best[:, -1], best_flip[:, -1]


def _nx_pairs(events: Tuple[int, ...], dist: np.ndarray, bcol: int) -> set:
    """NetworkX blossom on the pattern's negated-weight graph: the
    matched pairs of nodes ``("e", i)`` (event ``i``) and ``("b", i)``
    (its boundary copy), oriented as ``max_weight_matching`` returns
    them."""
    import networkx as nx   # the reference only: not on the import path

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


def _nx_match(events: Tuple[int, ...], dist: np.ndarray, parity: np.ndarray,
              bcol: int) -> Tuple[float, int]:
    """Exact min-weight matching via NetworkX blossom (:func:`_nx_pairs`)
    — the reference the native blossom reproduces."""
    total = 0.0
    corr = 0
    for a, b in _nx_pairs(events, dist, bcol):
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


def _blossom_parities(graph: DetectorGraph, bits: np.ndarray) -> np.ndarray:
    """Correction parities of ``(N, D)`` patterns past
    :data:`_DP_LIMIT`: one call to the native blossom, or — in a
    process without it — :func:`_nx_match` one pattern at a time."""
    from . import _native   # not on ``import repro``

    dist, parity, n = graph.distances, graph.parities, graph.num_nodes
    kernel = _native.blossom()
    if kernel is None or bits.shape[1] > n:
        _OBS_PYTHON.inc(bits.shape[0])
        return np.array([_nx_match(tuple(np.flatnonzero(row).tolist()),
                                   dist, parity, n)[1] for row in bits],
                        dtype=np.uint8)
    _OBS_NATIVE.inc(bits.shape[0])
    event_ptr, events = _native.csr_rows(bits)
    return kernel.match(event_ptr, events, dist, parity, n,
                        _BOUNDARY_BIAS)[1]


def _bucket_tables(graph: DetectorGraph) -> Tuple[np.ndarray, np.ndarray]:
    """``graph.distances`` / ``graph.parities`` laid out for bucket
    gathers, ``(num_nodes + 1, num_nodes + 2)`` each: node
    ``num_nodes`` is the padding dummy (infinitely far from every
    node, free to send to the boundary, no parity) and the last
    column is the boundary with :data:`_BOUNDARY_BIAS` already added
    — the recursion's ``dist[e, bcol] + _BOUNDARY_BIAS``, done once
    per graph (``graph.derived``) instead of once per option."""
    n = graph.num_nodes
    cost = np.full((n + 1, n + 2), np.inf)
    cost[:n, :n] = graph.distances[:, :n]
    cost[:n, n + 1] = graph.distances[:, n] + _BOUNDARY_BIAS
    cost[n, n + 1] = 0.0
    flip = np.zeros((n + 1, n + 2), dtype=np.uint8)
    flip[:n, :n] = graph.parities[:, :n]
    flip[:n, n + 1] = graph.parities[:, n]
    return cost, flip


def _bucket_parities(graph: DetectorGraph, bits: np.ndarray) -> np.ndarray:
    """:func:`_dp_match_batch` over ``(N, D)`` patterns of at most
    :data:`_DP_LIMIT` defects, bucketed by defect count — one padded
    bucket up to :data:`_PAD_LIMIT`, one per count above — in slices
    of at most :data:`_SLICE_CANDIDATES` candidates."""
    n = graph.num_nodes
    cost, flip = graph.derived("mwpm", _bucket_tables)
    out = np.zeros(bits.shape[0], dtype=np.uint8)

    # Per pattern: the boundary column, then its events ascending (a
    # stable sort brings the set bits forward in order), padded with
    # the dummy node.
    counts = np.count_nonzero(bits, axis=1)
    found = np.argsort(bits ^ 1, axis=1, kind="stable")[:, :_DP_LIMIT]
    found[np.arange(found.shape[1]) >= counts[:, None]] = n
    nodes = np.concatenate(
        [np.full((bits.shape[0], 1), n + 1), found], axis=1)

    order = np.argsort(counts, kind="stable")
    edges = np.searchsorted(counts[order], _BUCKET_TOPS,
                            side="right").tolist()
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == hi:
            continue
        k = int(counts[order[hi - 1]])      # the bucket's heaviest
        step = max(1, _SLICE_CANDIDATES // _lattice(k).options)
        for at in range(lo, hi, step):
            which = order[at:min(at + step, hi)]
            cols = nodes[which, :1 + k]
            index = (cols[:, 1:, None], cols[:, None, :])
            out[which] = _dp_match_batch(cost[index], flip[index])[1]
    return out


def _dp_parities(graph: DetectorGraph, bits: np.ndarray) -> np.ndarray:
    """Correction parities of ``(N, D)`` patterns of at most
    :data:`_DP_LIMIT` defects: one call to the native DP, or — in a
    process without it — :func:`_bucket_parities`."""
    from . import _native   # not on ``import repro``

    kernel = _native.blossom()
    if kernel is None or bits.shape[1] > graph.num_nodes:
        _OBS_DP_PYTHON.inc(bits.shape[0])
        return _bucket_parities(graph, bits)
    _OBS_DP_NATIVE.inc(bits.shape[0])
    event_ptr, events = _native.csr_rows(bits)
    return kernel.dp(event_ptr, events, graph.distances, graph.parities,
                     graph.num_nodes, _BOUNDARY_BIAS)[1]


@dataclass
class MWPMDecoder(Decoder):
    """MWPM decoder bound to a detector graph.

    ``use_final_data`` selects the qtcodes-style data-readout decode
    (see :func:`~repro.decoders.batch.prepare_packed_inputs`); the graph
    must then carry ``rounds + 1`` rounds (handled by ``decoder_for``).
    ``cache_decodes`` enables the cross-batch syndrome-dedup cache.
    """

    graph: DetectorGraph
    use_final_data: bool = True
    cache_decodes: bool = True

    @property
    def name(self) -> str:
        return "mwpm"

    # ------------------------------------------------------------------
    def _decode_pattern(self, detector_bits: np.ndarray) -> int:
        """Decode one flattened detector pattern -> readout correction."""
        return int(self._decode_patterns(
            np.asarray(detector_bits, dtype=np.uint8)[None, :])[0])

    def _decode_patterns(self, bits: np.ndarray) -> np.ndarray:
        """Decode ``(N, D)`` detector patterns together.

        Shortest-path distances respect the graph's edge weights, so a
        reweighted graph (burst-adaptive recovery) changes the matching
        through its own tables.  Patterns of at most :data:`_DP_LIMIT`
        defects go to the bitmask DP together (:func:`_dp_parities`),
        heavier ones to blossom together (:func:`_blossom_parities`)."""
        graph = self.graph
        out = np.empty(bits.shape[0], dtype=np.uint8)
        light = np.count_nonzero(bits, axis=1) <= _DP_LIMIT
        out[light] = _dp_parities(graph, bits[light])

        heavy = np.flatnonzero(~light)
        if heavy.size:
            prof = _prof._ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            out[heavy] = _blossom_parities(graph, bits[heavy])
            if prof is not None:
                prof.stage("decode.matcher/decode.matcher.blossom",
                           perf_counter() - t0, calls=int(heavy.size))
        return out
