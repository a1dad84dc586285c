"""The native union-find kernel: ``_unionfind.c`` as two Python calls.

``_unionfind.c`` (beside this file) is built, cached and loaded by
:class:`repro._clib.Loader`.  Whether that worked is decided **once
per process** by :func:`kernel`: any failure leaves
:meth:`~repro.decoders.unionfind.UnionFindDecoder._decode_pattern` —
the reference — in charge for the life of the process, recorded as one
``decoders.native_unavailable`` event carrying the reason.

Imported by :meth:`~repro.decoders.unionfind.UnionFindDecoder.
_decode_patterns` on the first union-find decode, never by
``import repro``.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional, Sequence, Tuple

import numpy as np

from .._clib import Loader

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_unionfind.c")

#: Kernel return codes (``_unionfind.c``).
OK, NO_CONVERGENCE, NO_MEMORY = 0, 1, 2

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


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
        ``(grown_ptr, grown)``; ``RuntimeError`` where the reference
        raises it."""
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
        _check(status)
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
            order_ptr.ctypes.data, order.ctypes.data, out.ctypes.data))
        return out


def _check(status: int) -> None:
    if status == NO_MEMORY:
        raise MemoryError("native union-find kernel")
    if status != OK:
        raise RuntimeError(f"native union-find kernel: status {status}")


_LOADER = Loader(SOURCE, "unionfind-kernel", "decoders.native_unavailable",
                 Kernel)


def kernel() -> Optional[Kernel]:
    """The native kernel, or ``None`` when this process decodes through
    the reference (see :func:`unavailable_reason`)."""
    return _LOADER()


def unavailable_reason() -> Optional[str]:
    """Why :func:`kernel` returned ``None`` (``None`` if it did not)."""
    return _LOADER.unavailable_reason()
