"""The native decoder kernels: ``_unionfind.c`` and ``_blossom.c``
(MWPM's matcher: the bitmask DP and the blossom).

Each source (beside this file) is built, cached and loaded by its own
:class:`repro._clib.Loader` on first use — by :func:`kernel` for
union-find, by :func:`blossom` for MWPM's matcher; a process where
that fails gets the loader's :class:`RuntimeError` there.

Imported by the decoders' batch hooks on their first pattern, never
by ``import repro``.
"""

from __future__ import annotations

import ctypes
import os
from typing import Sequence, Tuple

import numpy as np

from .._clib import Loader

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_unionfind.c")
BLOSSOM_SOURCE = os.path.join(_HERE, "_blossom.c")

#: Kernel return codes (``_unionfind.c``, ``_blossom.c``).
OK, NO_CONVERGENCE, NO_MEMORY, BAD_INPUT = 0, 1, 2, 3

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


def csr_rows(bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The set positions of each row of ``(N, D)`` ``bits``, ascending,
    as CSR int64 ``(ptr (N + 1,), nodes)``."""
    rows, nodes = np.nonzero(bits)
    ptr = np.zeros(bits.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=bits.shape[0]), out=ptr[1:])
    return ptr, nodes.astype(np.int64)


class Kernel:
    """``repro_uf_grow`` / ``repro_uf_peel`` of a loaded library.

    ``tables`` is the graph's
    :class:`~repro.decoders.unionfind._KernelTables`; patterns' defects
    come as CSR int64 ``(ptr (N + 1,), nodes)``.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        grow = lib.repro_uf_grow
        grow.restype = _I64
        grow.argtypes = ([_I64, _I64, _PTR, _PTR, _PTR,     # n E u v target
                          _PTR, _I64, _I64, _I64,           # erased, rule
                          _I64, _PTR, _PTR,                 # defects
                          _I64, _PTR, _PTR])                # grown
        peel = lib.repro_uf_peel
        peel.restype = _I64
        peel.argtypes = ([_I64, _PTR, _PTR, _PTR,           # n u v flip
                          _I64, _PTR, _PTR,                 # defects
                          _PTR, _PTR, _PTR])                # order, out
        self._grow, self._peel = grow, peel

    def grow(self, n: int, tables, weighted: bool,
             defect_ptr: np.ndarray, defects: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Each pattern's ``grown.add`` sequence, as CSR
        ``(grown_ptr, grown)``; ``RuntimeError`` where growth does not
        converge."""
        num_patterns = defect_ptr.size - 1
        # An edge is added at most once per pattern; pages past the
        # ones written are never touched.
        grown = np.empty(max(1, num_patterns * tables.num_edges),
                         dtype=np.int64)
        grown_ptr = np.empty(num_patterns + 1, dtype=np.int64)
        status = self._grow(
            n, tables.num_edges, tables.u, tables.v,
            tables.weights if weighted else tables.units,
            tables.erased, tables.num_erased, int(weighted),
            tables.guard_limits[weighted], num_patterns,
            defect_ptr.ctypes.data, defects.ctypes.data, grown.size,
            grown_ptr.ctypes.data, grown.ctypes.data)
        if status == NO_CONVERGENCE:
            raise RuntimeError("union-find growth failed to converge")
        _check(status, "union-find")
        return grown_ptr, grown[:grown_ptr[-1]]

    def peel(self, n: int, tables, defect_ptr: np.ndarray,
             defects: np.ndarray, order_ptr: Sequence[int],
             order: Sequence[int]) -> np.ndarray:
        """Correction parities ``(N,)`` uint8 from each pattern's grown
        edges in its set's iteration order (CSR ``order_ptr``,
        ``order``)."""
        num_patterns = defect_ptr.size - 1
        order_ptr = np.asarray(order_ptr, dtype=np.int64)
        order = np.asarray(order, dtype=np.int64)
        out = np.empty(num_patterns, dtype=np.uint8)
        _check(self._peel(
            n, tables.u, tables.v, tables.flip, num_patterns,
            defect_ptr.ctypes.data, defects.ctypes.data,
            order_ptr.ctypes.data, order.ctypes.data, out.ctypes.data),
            "union-find")
        return out


class Blossom:
    """``repro_blossom_match`` and ``repro_dp_match`` of a loaded
    library: MWPM's matcher for patterns of any size."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        match = lib.repro_blossom_match
        match.restype = _I64
        match.argtypes = ([_I64, _PTR, _PTR,                # events
                           _I64, _I64, _PTR, _PTR,          # tables
                           ctypes.c_double, _PTR, _PTR])    # bias, out
        dp = lib.repro_dp_match
        dp.restype = _I64
        dp.argtypes = ([_I64, _PTR, _PTR,                   # events
                        _I64, _I64, _I64, _PTR, _PTR,       # tables
                        ctypes.c_double, _PTR, _PTR])       # bias, out
        self._match, self._dp = match, dp

    def match(self, event_ptr: np.ndarray, events: np.ndarray,
              dist: np.ndarray, parity: np.ndarray, bcol: int,
              bias: float) -> Tuple[np.ndarray, np.ndarray]:
        """NetworkX's ``max_weight_matching`` blossom (see
        :mod:`~repro.decoders.matching`) for every pattern of CSR int64
        ``(event_ptr, events)`` (row indices of ``dist`` / ``parity``,
        each pattern's ascending, boundary in column ``bcol``):
        ``(mates, parities)``.  ``mates[2 e:2 (e + k)]``, for the
        pattern whose ``k`` events start at ``e``, holds each node's
        mate as a code — ``2 i`` for ``("e", i)``, ``2 i + 1`` for
        ``("b", i)`` — and ``parities`` is ``(N,)`` uint8."""
        event_ptr, events, dist, parity = _fit(event_ptr, events, dist,
                                               parity, bcol)
        mates = np.empty(2 * events.size, dtype=np.int64)
        out = np.empty(event_ptr.size - 1, dtype=np.uint8)
        _check(self._match(
            out.size, event_ptr.ctypes.data, events.ctypes.data,
            dist.shape[1], bcol, dist.ctypes.data, parity.ctypes.data,
            bias, mates.ctypes.data, out.ctypes.data), "blossom")
        return mates, out

    def dp(self, event_ptr: np.ndarray, events: np.ndarray,
           dist: np.ndarray, parity: np.ndarray, bcol: int,
           bias: float) -> Tuple[np.ndarray, np.ndarray]:
        """The bitmask DP (see :mod:`~repro.decoders.matching`) for
        every pattern on :meth:`match`'s inputs: ``(costs, parities)``,
        ``(N,)`` float64 and uint8.  ``ValueError`` when a pattern has
        more than :data:`~repro.decoders.matching._DP_LIMIT` events (the
        kernel's refusal)."""
        event_ptr, events, dist, parity = _fit(event_ptr, events, dist,
                                               parity, bcol)
        costs = np.empty(event_ptr.size - 1)
        out = np.empty(event_ptr.size - 1, dtype=np.uint8)
        _check(self._dp(
            out.size, event_ptr.ctypes.data, events.ctypes.data,
            dist.shape[0], dist.shape[1], bcol, dist.ctypes.data,
            parity.ctypes.data, bias, costs.ctypes.data, out.ctypes.data),
            "bitmask DP")
        return costs, out


def _fit(event_ptr: np.ndarray, events: np.ndarray, dist: np.ndarray,
         parity: np.ndarray, bcol: int) -> Tuple[np.ndarray, ...]:
    """The matcher's inputs as the kernels read them — contiguous
    int64 CSR, float64 and uint8 tables — or ``ValueError`` when they
    do not fit together."""
    event_ptr = np.ascontiguousarray(event_ptr, dtype=np.int64)
    events = np.ascontiguousarray(events, dtype=np.int64)
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    parity = np.ascontiguousarray(parity, dtype=np.uint8)
    rows, cols = dist.shape
    inside = (parity.shape == dist.shape and 0 <= bcol < cols
              and event_ptr.size >= 1 and event_ptr[0] == 0
              and event_ptr[-1] == events.size
              and bool(np.all(np.diff(event_ptr) >= 0)))
    if events.size:
        inside &= 0 <= events.min() and events.max() < min(rows, cols)
    if not inside:
        raise ValueError("event CSR and tables do not fit together")
    return event_ptr, events, dist, parity


def _check(status: int, name: str) -> None:
    if status == BAD_INPUT:
        raise ValueError(f"native {name} kernel: input refused")
    if status == NO_MEMORY:
        raise MemoryError(f"native {name} kernel")
    if status != OK:
        raise RuntimeError(f"native {name} kernel: status {status}")


_LOADER = Loader(SOURCE, "unionfind-kernel", Kernel)
_BLOSSOM_LOADER = Loader(BLOSSOM_SOURCE, "blossom-kernel", Blossom)


def kernel() -> Kernel:
    """The native union-find kernel; :class:`RuntimeError` where it
    cannot load."""
    return _LOADER()


def blossom() -> Blossom:
    """The native matcher; :class:`RuntimeError` where it cannot
    load."""
    return _BLOSSOM_LOADER()
