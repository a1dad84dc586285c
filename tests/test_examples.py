"""Smoke tests for the example scripts that CI does not run directly.

Each example runs as ``__main__`` via :mod:`runpy`, with stdout
captured; a test fails if the script raises or prints nothing.
``quickstart.py`` and ``decoder_comparison.py`` run in CI's examples
step instead.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("name", [
    "custom_code",
    "logical_layer_injection",
    "radiation_burst_study",
    pytest.param("architecture_selection", marks=pytest.mark.slow),
])
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
