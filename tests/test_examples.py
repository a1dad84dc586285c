"""Smoke tests for the example scripts that CI does not run directly.

Each example runs as ``__main__`` via :mod:`runpy`, with stdout
captured; a test fails if the script raises or prints nothing.
``quickstart.py`` and ``decoder_comparison.py`` run in CI's examples
step instead.  ``scripts/run_all_experiments.py`` runs at recording
scale, so only its ``--help`` is smoked: it must parse and leave no
``results/`` directory behind.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


@pytest.mark.parametrize("name", [
    "custom_code",
    "logical_layer_injection",
    "radiation_burst_study",
    pytest.param("architecture_selection", marks=pytest.mark.slow),
])
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_run_all_experiments_help(monkeypatch, capsys):
    script = ROOT / "scripts" / "run_all_experiments.py"
    results = ROOT / "results"
    existed = results.exists()
    monkeypatch.setattr("sys.argv", [str(script), "--help"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 0
    assert "--workers" in capsys.readouterr().out
    assert results.exists() == existed
