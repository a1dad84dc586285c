"""Fixtures shared across the suites."""

import contextlib

import pytest

from oracles.frames import numpy_executor, python_reference


@pytest.fixture(params=["numpy", "native"])
def executor(request):
    """Run the test once on the frames kernel and once on its oracles
    (``oracles.frames``): ``numpy`` runs every ``run_packed`` on the
    numpy executor and every compile's reference pass on the Python
    replay; ``native`` runs both on ``_kernel.c``."""
    with contextlib.ExitStack() as stack:
        if request.param == "numpy":
            stack.enter_context(numpy_executor())
            stack.enter_context(python_reference())
        yield request.param
