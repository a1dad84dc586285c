"""The native frames executors: ``_kernel.c`` as Python calls.

``_kernel.c`` (beside this file) is built, cached and loaded by
:class:`repro._clib.Loader` on the first call of :func:`kernel`; a
process where that fails — no compiler, no writable cache, a library
that will not load, a numpy whose bit generators publish no ``ctypes``
interface — gets the loader's :class:`RuntimeError` there and cannot
sample, compile a frame program or run the tableau.

Imported by :meth:`~repro.frames.simulator.FrameSimulator.run_packed`
on the first sample, by :func:`~repro.frames.program.frame_structure`
on the first compile and by
:func:`~repro.noise.executor.run_batch_noisy` on the first tableau
run, never by ``import repro``.
"""

from __future__ import annotations

import ctypes
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._clib import Loader
from .program import OP_KIND

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_kernel.c")

#: Kernel return codes (``_kernel.c``).
OK, NO_MEMORY, BAD_OP = 0, 1, 2
#: Opcode slots in a profile accumulator: seconds, calls, fused width.
NUM_OPS = len(OP_KIND)


class Kernel:
    """``repro_frames_run`` of a loaded library, as a Python call,
    ``repro_frames_reference`` as :meth:`reference` and
    ``repro_tableau_run`` as :meth:`tableau`."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        # The kernel draws through the bitgen_t numpy publishes here.
        np.random.PCG64(0).ctypes.bit_generator.value
        run = lib.repro_frames_run
        run.restype = ctypes.c_int64
        run.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 3  # code, ops
                        + [ctypes.c_void_p] * 2                # prob, llr
                        + [ctypes.c_int64]                     # sites
                        + [ctypes.c_void_p] * 4                # lw x z rec
                        + [ctypes.c_int64] * 2                 # W, lanes
                        + [ctypes.c_void_p] * 4)       # lanes gens out prof
        self._run = run
        ref = lib.repro_frames_reference
        ref.restype = ctypes.c_int64
        ref.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 2  # stream, n
                        + [ctypes.c_void_p] * 3)          # gen results out
        self._reference = ref
        tab = lib.repro_tableau_run
        tab.restype = ctypes.c_int64
        tab.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 3  # stream n B
                        + [ctypes.c_void_p] + [ctypes.c_int64] * 2  # cbits
                        + [ctypes.c_void_p] * 3     # prob draw_certain llr
                        + [ctypes.c_int64]          # sites
                        + [ctypes.c_void_p] * 4)    # lw record gen prof
        self._tableau = tab

    def __call__(self, code, start: int, stop: int, prob, log_ratios,
                 log_weights, x, z, record_words,
                 lanes: Sequence[Tuple[int, int, int]],
                 bit_generators: Sequence, profile: bool = False
                 ) -> Tuple[List[int], Optional[List[float]]]:
        """Run ops ``start .. stop`` of one program over
        ``x``/``z``/``record_words`` (C-ordered uint64 ``(rows, W)``
        arrays) in place — and, with ``log_ratios`` (C-ordered float64
        ``(2, sites)``), bank each shot's weight in ``log_weights``.

        ``lanes`` are ``(shots, lo, hi)`` per lane and
        ``bit_generators`` their numpy bit generators, whose locks are
        held for the call.  Returns the kernel's ``out`` words
        (depolarize rows, hits) and — with ``profile`` — the
        ``3 * NUM_OPS`` accumulator.
        """
        num_lanes = len(lanes)
        geometry = (ctypes.c_int64 * (3 * num_lanes))(
            *[v for lane in lanes for v in lane])
        gens = (ctypes.c_void_p * num_lanes)(
            *[bg.ctypes.bit_generator.value for bg in bit_generators])
        out = (ctypes.c_int64 * 2)()
        acc = (ctypes.c_double * (3 * NUM_OPS))() if profile else None
        weighted = log_ratios is not None
        locks = list({id(bg): bg.lock for bg in bit_generators}.values())
        for lock in locks:
            lock.acquire()
        try:
            status = self._run(
                code.ctypes.data, code.size, start, stop, prob.ctypes.data,
                log_ratios.ctypes.data if weighted else None,
                prob.size, log_weights.ctypes.data if weighted else None,
                x.ctypes.data, z.ctypes.data, record_words.ctypes.data,
                x.shape[1], num_lanes, geometry, gens, out, acc)
        finally:
            for lock in locks:
                lock.release()
        if status == NO_MEMORY:
            raise MemoryError("native frame executor")
        if status != OK:
            raise RuntimeError(f"native frame executor: status {status}")
        return list(out), None if acc is None else list(acc)

    def reference(self, stream: Sequence[int], num_qubits: int,
                  rng) -> Tuple[List[int], bool]:
        """The reference pass over ``stream`` on ``num_qubits``
        qubits, drawing through ``rng``'s bit generator with its lock
        held: per ``REF_MEASURE`` and ``REF_QUERY`` entry in stream
        order, a measurement's outcome plus 2 if it took the random
        branch and a query's Z value or 2 (indefinite); and whether any
        measurement or reset drew from ``rng``."""
        code = np.asarray(stream, dtype=np.int64)
        results = np.zeros(code.size // 2 + 1, dtype=np.int64)
        out = (ctypes.c_int64 * 2)()
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            status = self._reference(
                code.ctypes.data, code.size, num_qubits,
                bit_generator.ctypes.bit_generator.value,
                results.ctypes.data, out)
        if status == NO_MEMORY:
            raise MemoryError("native reference pass")
        if status == BAD_OP:
            raise IndexError("reference stream entry outside its opcodes "
                             f"or [0, {num_qubits}) qubits")
        if status != OK:
            raise RuntimeError(f"native reference pass: status {status}")
        return results[:out[0]].tolist(), bool(out[1])

    def tableau(self, program, batch_size: int, rng, weighted: bool,
                profile: bool = False
                ) -> Tuple[np.ndarray, Optional[np.ndarray],
                           Optional[List[float]]]:
        """``batch_size`` shots of a bound ``program``'s circuit and
        noise on the batched tableau, drawing through ``rng``'s bit
        generator with its lock held — the records, generator state and
        (``weighted``) log-weights its oracle, ``numpy_walk`` in
        ``tests/oracles/tableau.py``, gives.

        Returns the ``(B, cbits)`` uint8 records, the per-shot
        log-weights (``None`` unless ``weighted``) and — with
        ``profile`` — the seconds of the gates, deterministic and
        random measurements and noise.
        """
        structure = program.structure
        stream = structure.reference_stream
        slots = structure.answer_slots[:, 1]
        cbits = np.ascontiguousarray(slots[slots >= 0])
        prob = program.probabilities
        llr = program.log_ratios if weighted else None
        records = np.zeros((batch_size, structure.num_cbits), dtype=np.uint8)
        log_weights = np.zeros(batch_size) if weighted else None
        acc = (ctypes.c_double * 4)() if profile else None
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            status = self._tableau(
                stream.ctypes.data, stream.size, structure.num_qubits,
                batch_size, cbits.ctypes.data, cbits.size,
                structure.num_cbits, prob.ctypes.data,
                structure.draw_certain.ctypes.data,
                None if llr is None else llr.ctypes.data, prob.size,
                None if log_weights is None else log_weights.ctypes.data,
                records.ctypes.data,
                bit_generator.ctypes.bit_generator.value, acc)
        if status == NO_MEMORY:
            raise MemoryError("native tableau executor")
        if status != OK:
            raise RuntimeError(f"native tableau executor: status {status}")
        return records, log_weights, None if acc is None else list(acc)


_LOADER = Loader(SOURCE, "frames-kernel", Kernel)


def kernel() -> Kernel:
    """The native executor; :class:`RuntimeError` where it cannot
    load."""
    return _LOADER()
