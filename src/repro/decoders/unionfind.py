"""Union-find decoder (Delfosse–Nickerson), the almost-linear-time
alternative the paper cites ([62]) but leaves out of scope.

Implemented here as an extension/ablation: clusters grow from flagged
detectors in synchronized steps, merging until every cluster holds an
even number of defects or touches the boundary; a peeling pass then
extracts a correction whose syndrome matches the defects.  Accuracy is
slightly below MWPM (by design).

:meth:`UnionFindDecoder._decode_patterns` decodes a block's missed
patterns in two calls to a C kernel (``_unionfind.c``): one grows
every pattern's clusters, one peels them — about 7 us a pattern on the
strike patterns of an XXZZ (5,5) memory (60 detectors, 173 edges, ~8
defects; 2.2 growing, 1.2 peeling, the rest the peel order's round
trip through Python ``set`` objects below).  The tests hold its
parities bit for bit to a pure-Python decode of one pattern at a time,
which takes 130-155 us a pattern there.

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
from typing import List, NamedTuple, Tuple

import numpy as np

from .base import Decoder, check_width
from .detector_graph import BOUNDARY, ERASED_WEIGHT, DetectorGraph


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
    def _decode_patterns(self, bits: np.ndarray) -> np.ndarray:
        """Decode ``(N, D)`` detector patterns in two native calls.

        ``repro_uf_grow`` returns each pattern's ``grown.add`` sequence;
        each is poured into a fresh ``set`` here, so CPython defines the
        peel order (the per-pattern decode's spanning-forest walk), and
        ``repro_uf_peel`` peels in that order."""
        from . import _native   # not on ``import repro``

        g = self.graph
        n = g.num_nodes
        check_width(bits, n)
        kernel = _native.kernel()
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
