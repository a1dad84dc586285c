"""Build, cache and load the native frame-program executor.

``_kernel.c`` (beside this file) is compiled on first use with the
system C compiler into a cache file named by the hash of its source
and flags, and loaded with :mod:`ctypes`.  Whether that worked is
decided **once per process** by :func:`kernel`: any failure — no
compiler, no writable cache, a library that will not load, a numpy
whose bit generators publish no ``ctypes`` interface — leaves the
numpy executor in charge for the life of the process, recorded as one
``frames.native_unavailable`` event carrying the reason.

Imported by :meth:`~repro.frames.simulator.FrameSimulator.run_packed`
on the first sample, never by ``import repro``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
from typing import Iterator, List, Optional, Sequence, Tuple

from .. import obs
from .program import OP_KIND

COMPILERS = ("cc", "gcc")
#: No ``-march=native``: a home directory shared across hosts shares
#: the cache.
FLAGS = ("-O2", "-shared", "-fPIC")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_kernel.c")

#: Kernel return codes (``_kernel.c``).
OK, CUT_RUN, NO_MEMORY = 0, 1, 2
#: Opcode slots in a profile accumulator: seconds, calls, fused width.
NUM_OPS = len(OP_KIND)


class Kernel:
    """``repro_frames_run`` of a loaded library, as a Python call."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        run = lib.repro_frames_run
        run.restype = ctypes.c_int64
        run.argtypes = ([ctypes.c_void_p, ctypes.c_int64]      # code
                        + [ctypes.c_void_p] * 4                # prob x z rec
                        + [ctypes.c_int64] * 2                 # W, lanes
                        + [ctypes.c_void_p] * 2                # lanes, gens
                        + [ctypes.c_int64] * 2                 # dense rule
                        + [ctypes.c_void_p] * 2)               # out, prof
        self._run = run

    def __call__(self, code, prob, x, z, record_words,
                 lanes: Sequence[Tuple[int, int, int]],
                 bit_generators: Sequence, dense_shots: int,
                 dense_hits: int, profile: bool = False
                 ) -> Tuple[bool, List[int], Optional[List[float]]]:
        """Run one program over ``x``/``z``/``record_words`` (C-ordered
        uint64 ``(rows, W)`` arrays) in place.

        ``lanes`` are ``(shots, lo, hi)`` per lane and
        ``bit_generators`` their distinct numpy bit generators, whose
        locks are held for the call.  Returns whether the kernel
        refused a depolarize site cut off from its draw, its ``out``
        words (depolarize rows, hits, dense rows; on a refusal the
        site's run and the open run) and — with ``profile`` — the
        ``3 * NUM_OPS`` accumulator.
        """
        num_lanes = len(lanes)
        geometry = (ctypes.c_int64 * (3 * num_lanes))(
            *[v for lane in lanes for v in lane])
        gens = (ctypes.c_void_p * num_lanes)(
            *[bg.ctypes.bit_generator.value for bg in bit_generators])
        out = (ctypes.c_int64 * 5)()
        acc = (ctypes.c_double * (3 * NUM_OPS))() if profile else None
        locks = [bg.lock for bg in bit_generators]
        for lock in locks:
            lock.acquire()
        try:
            status = self._run(
                code.ctypes.data, code.size, prob.ctypes.data,
                x.ctypes.data, z.ctypes.data, record_words.ctypes.data,
                x.shape[1], num_lanes, geometry, gens,
                dense_shots, dense_hits, out, acc)
        finally:
            for lock in locks:
                lock.release()
        if status == NO_MEMORY:
            raise MemoryError("native frame executor")
        if status not in (OK, CUT_RUN):
            raise RuntimeError(f"native frame executor: status {status}")
        return (status == CUT_RUN, list(out),
                None if acc is None else list(acc))


def _cache_dirs() -> Iterator[str]:
    """Where the built library may live, most preferred first."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        yield os.path.join(xdg, "repro")
    home = os.path.expanduser("~")
    if home != "~":
        yield os.path.join(home, ".cache", "repro")
    # A shared temp dir: keep other users' files out of the load path.
    yield os.path.join(tempfile.gettempdir(), f"repro-{os.getuid()}")


def _build(target: str) -> None:
    """Compile ``_kernel.c`` to ``target`` — under a temp name first,
    so a process loading ``target`` never sees a half-written file."""
    import subprocess   # a cache hit never pays for it

    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        raise RuntimeError(
            f"no C compiler ({', '.join(COMPILERS)}) on PATH")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *FLAGS, "-o", tmp, SOURCE],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode:
            raise RuntimeError(f"{compiler} failed: "
                               f"{proc.stderr.strip()[-300:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> Kernel:
    import numpy as np

    # The kernel draws through the bitgen_t numpy publishes here.
    np.random.PCG64(0).ctypes.bit_generator.value
    with open(SOURCE, "rb") as handle:
        digest = hashlib.sha256(
            handle.read() + " ".join(FLAGS).encode()).hexdigest()
    name = f"frames-kernel-{os.uname().machine}-{digest[:20]}.so"
    error: Optional[Exception] = None
    for root in _cache_dirs():
        target = os.path.join(root, name)
        try:
            os.makedirs(root, mode=0o700, exist_ok=True)
            if os.stat(root).st_uid != os.getuid():
                raise PermissionError(f"{root} belongs to another user")
            if not os.path.exists(target):
                _build(target)
            return Kernel(ctypes.CDLL(target))
        except OSError as exc:      # unwritable or unloadable: next dir
            error = exc
    raise error


#: ``(kernel or None, reason or None)`` once decided.
_DECIDED: Optional[Tuple[Optional[Kernel], Optional[str]]] = None


def kernel() -> Optional[Kernel]:
    """The native executor, or ``None`` when this process runs on the
    numpy one (see :func:`unavailable_reason`)."""
    global _DECIDED
    if _DECIDED is None:
        try:
            _DECIDED = (_load(), None)
        except Exception as exc:    # any failure: numpy, decided once
            reason = f"{type(exc).__name__}: {exc}"
            _DECIDED = (None, reason)
            obs.event("frames.native_unavailable", reason)
    return _DECIDED[0]


def unavailable_reason() -> Optional[str]:
    """Why :func:`kernel` returned ``None`` (``None`` if it did not)."""
    kernel()
    return _DECIDED[1]
