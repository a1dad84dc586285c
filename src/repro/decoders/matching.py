"""Minimum-weight perfect-matching decoder (paper §II-D).

Flagged detectors are matched pairwise (or to the boundary) so that the
total shortest-path weight is minimal; the correction applied to the
raw readout is the XOR of the logical parities along the matched paths.

Two exact matching rules, both in ``_blossom.c`` and loaded by
:func:`~repro.decoders._native.blossom` on a process's first decode,
never on import; a pattern's defect count alone picks the rule:

* up to :data:`_DP_LIMIT` defects — a bitmask dynamic program over the
  sets of still-unmatched defects: the lowest unmatched defect goes to
  the boundary or to one of the others (``repro_dp_match``, all of a
  call's light patterns in one foreign call, :func:`_dp_parities`).
  It adds the recursion's floats in the recursion's order and keeps
  the first strict minimum; it only adds, so there is no multiply a
  compiler could contract into a fused multiply-add.  The tests hold
  it, cost and parity, to that recursion written as a memoised Python
  function;
* more defects — blossom (Edmonds, in Galil's primal-dual form) on the
  negated-weight event graph with per-event boundary copies
  (``repro_blossom_match``, all of a call's heavy patterns in one
  foreign call, :func:`_blossom_parities`): about 30 us a pattern
  against NetworkX's 4 ms on the ``strike_decode`` patterns of 17–21
  defects.

**Why the blossom is NetworkX's.**  A minimum-weight matching is
rarely unique on these graphs, so "the same weight" would not keep the
counts; the kernel returns NetworkX's ``max_weight_matching`` pair for
pair.  It builds that reference's graph node for node (nodes
``("e", i)`` and boundary copies ``("b", i)`` in NetworkX's order,
each adjacency list in insertion order, ``0.0`` between boundary
copies, no edge for an infinite distance) and repeats every choice the
reference makes in the reference's order: its dict and list orders
(``blossomparent``, ``blossomdual``, ``bestedgeto``, with deletions),
the LIFO queue, strict ``<`` in every least-slack and delta choice,
and its float operations (these weights are floats, so
``allinteger`` is false: slack ``(u + v) - 2 w``, ``delta / 2.0``).
The parity is XORed over the pairs oriented as NetworkX returns them.
NetworkX is the oracle in the tests, on generated and recorded
patterns alike; it is a test dependency only.

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
from time import perf_counter

import numpy as np

from ..obs import prof as _prof
from .base import Decoder, check_width
from .detector_graph import DetectorGraph

#: Event-count threshold below which the exact bitmask DP is used.
_DP_LIMIT = 16

#: Tie-break: at equal weight, pairing two defects (one error chain) is
#: more probable than two independent boundary chains, so boundary
#: matches carry an epsilon penalty.
_BOUNDARY_BIAS = 1e-6


def _blossom_parities(graph: DetectorGraph, bits: np.ndarray) -> np.ndarray:
    """Correction parities of ``(N, D)`` patterns past
    :data:`_DP_LIMIT`: one call to the native blossom."""
    from . import _native   # not on ``import repro``

    event_ptr, events = _native.csr_rows(bits)
    return _native.blossom().match(event_ptr, events, graph.distances,
                                   graph.parities, graph.num_nodes,
                                   _BOUNDARY_BIAS)[1]


def _dp_parities(graph: DetectorGraph, bits: np.ndarray) -> np.ndarray:
    """Correction parities of ``(N, D)`` patterns of at most
    :data:`_DP_LIMIT` defects: one call to the native DP."""
    from . import _native   # not on ``import repro``

    event_ptr, events = _native.csr_rows(bits)
    return _native.blossom().dp(event_ptr, events, graph.distances,
                                graph.parities, graph.num_nodes,
                                _BOUNDARY_BIAS)[1]


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
    def _decode_patterns(self, bits: np.ndarray) -> np.ndarray:
        """Decode ``(N, D)`` detector patterns together.

        Shortest-path distances respect the graph's edge weights, so a
        reweighted graph (burst-adaptive recovery) changes the matching
        through its own tables.  Patterns of at most :data:`_DP_LIMIT`
        defects go to the bitmask DP together (:func:`_dp_parities`),
        heavier ones to blossom together (:func:`_blossom_parities`)."""
        graph = self.graph
        check_width(bits, graph.num_nodes)
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
