"""Fixtures shared across the suites."""

import pytest

from repro.decoders import _native as _decoder_native
from repro.frames import _native


@pytest.fixture(params=["numpy", "native"])
def executor(request, monkeypatch):
    """Run the test once per executor of the frames library.  ``numpy``
    patches the loader out, so ``run_packed`` takes the ``_HANDLER``
    table and the tableau backend the numpy walk, as on a host without
    a compiler; ``native`` needs the kernel built."""
    if request.param == "numpy":
        monkeypatch.setattr(_native, "kernel", lambda: None)
    elif _native.kernel() is None:
        pytest.skip("native executor unavailable: "
                    + _native.unavailable_reason())
    return request.param


@pytest.fixture(params=["python", "native"])
def uf_executor(request, monkeypatch):
    """Run the test once per union-find batch path.  ``python`` patches
    the loader out, so ``_decode_patterns`` loops the per-pattern
    reference as on a host without a compiler; ``native`` needs the
    kernel built."""
    if request.param == "python":
        monkeypatch.setattr(_decoder_native, "kernel", lambda: None)
    elif _decoder_native.kernel() is None:
        pytest.skip("native union-find kernel unavailable: "
                    + _decoder_native.unavailable_reason())
    return request.param


@pytest.fixture(params=["python", "native"])
def blossom_executor(request, monkeypatch):
    """Run the test once per path MWPM matches patterns on.  ``python``
    patches the loader out, so patterns of at most ``_DP_LIMIT``
    defects go to the numpy DP and heavier ones to NetworkX one by one
    as on a host without a compiler; ``native`` needs the matcher
    library (``_blossom.c``) built."""
    if request.param == "python":
        monkeypatch.setattr(_decoder_native, "blossom", lambda: None)
    elif _decoder_native.blossom() is None:
        pytest.skip("native blossom kernel unavailable: "
                    + _decoder_native.blossom_unavailable_reason())
    return request.param
