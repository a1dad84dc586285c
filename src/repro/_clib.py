"""Build, cache and load the package's C kernels.

A kernel is one C source beside the module that uses it:
``frames/_kernel.c`` (the frame executor, the compile reference pass
and the batched tableau),
``decoders/_unionfind.c`` (union-find) and ``decoders/_blossom.c``
(MWPM's matcher: the bitmask DP and the blossom).  It is compiled on
first use with the system C compiler into a cache file named by the
hash of its source and flags, and loaded with :mod:`ctypes`.

**A C compiler is required.**  Every kernel has one implementation,
its C source; there is no Python path to fall back to.  Whether a
kernel loads is decided **once per process** by a :class:`Loader`:
any failure — no compiler, no writable cache, a library that will not
load, a binding that refuses it — is one :class:`RuntimeError`, raised
on the kernel's first use and again, unchanged, on every later one.

Imported by the kernels' wrappers on first use, never by
``import repro``, so a host without a compiler still imports the
package and fails only where it samples or decodes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
from typing import Any, Callable, Iterator, Optional

COMPILERS = ("cc", "gcc")
#: No ``-march=native``: a home directory shared across hosts shares
#: the cache.
FLAGS = ("-O2", "-shared", "-fPIC")


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


def _build(source: str, target: str) -> None:
    """Compile ``source`` to ``target`` — under a temp name first, so a
    process loading ``target`` never sees a half-written file."""
    import subprocess   # a cache hit never pays for it

    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        raise RuntimeError(
            f"no C compiler ({', '.join(COMPILERS)}) on PATH")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *FLAGS, "-o", tmp, source],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode:
            raise RuntimeError(f"{compiler} failed: "
                               f"{proc.stderr.strip()[-300:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(source: str, stem: str) -> ctypes.CDLL:
    """The library built from ``source``, from the first cache
    directory that has it or can build it."""
    with open(source, "rb") as handle:
        digest = hashlib.sha256(
            handle.read() + " ".join(FLAGS).encode()).hexdigest()
    name = f"{stem}-{os.uname().machine}-{digest[:20]}.so"
    error: Optional[Exception] = None
    for root in _cache_dirs():
        target = os.path.join(root, name)
        try:
            os.makedirs(root, mode=0o700, exist_ok=True)
            if os.stat(root).st_uid != os.getuid():
                raise PermissionError(f"{root} belongs to another user")
            if not os.path.exists(target):
                _build(source, target)
            return ctypes.CDLL(target)
        except OSError as exc:      # unwritable or unloadable: next dir
            error = exc
    raise error


class Loader:
    """One kernel, decided once per process.

    Calling the loader returns ``bind(library)`` — the kernel's Python
    face.  If that fails, the first call raises one
    :class:`RuntimeError` naming the kernel, the compilers tried and
    the cache directories, and every later call raises the same error
    without trying again.
    """

    def __init__(self, source: str, stem: str,
                 bind: Callable[[ctypes.CDLL], Any]) -> None:
        self.source = source
        self.stem = stem
        self.bind = bind
        self._kernel: Any = None
        self._error: Optional[RuntimeError] = None

    def __call__(self) -> Any:
        if self._kernel is not None:
            return self._kernel
        if self._error is None:
            try:
                self._kernel = self.bind(_load(self.source, self.stem))
                return self._kernel
            except Exception as exc:
                self._error = RuntimeError(
                    f"the {os.path.basename(self.source)} kernel did not "
                    f"load ({type(exc).__name__}: {exc}); it needs a C "
                    f"compiler ({' or '.join(COMPILERS)}) on PATH and a "
                    f"writable cache directory "
                    f"({', '.join(_cache_dirs())})")
                self._error.__cause__ = exc
        raise self._error
