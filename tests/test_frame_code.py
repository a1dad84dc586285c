"""Compiled frame programs pinned word for word.

A dozen campaign-shaped structures — repetition and XXZZ codes, with
and without transpile SWAPs, quiet, struck, bursting and erased, at two
reference seeds, one binding tilted — are compiled, and each is reduced
to the sha256 of what the kernel and the tableau read (``code``,
``reference_stream``, ``answer_slots``, ``site_source``) plus its op
count, fused count and splitting boundaries.  ``tests/data/frame_code.json``
holds those digests; a change to the emitter, the scheduler or the walk
that moves one word fails here.

Regenerate the data only when the encoding is meant to change:
``PYTHONPATH=src python tests/test_frame_code.py --write``.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.frames import frame_structure
from repro.injection.campaign import _build_noise, _prepared
from repro.injection.spec import ArchSpec, CodeSpec, FaultSpec, InjectionTask
from repro.rare.sampler import SamplerSpec
from repro.rare.split import split_points

DATA = os.path.join(os.path.dirname(__file__), "data", "frame_code.json")

_REP = CodeSpec("repetition", (5, 1))
_D3 = CodeSpec("xxzz", (3, 3))
_D5 = CodeSpec("xxzz", (5, 5))
_MESH = ArchSpec("mesh", (5, 4))
_STATIC = FaultSpec(kind="radiation", root_qubit=2, time_index=2)
_BURST = FaultSpec(kind="radiation", root_qubit=4, strike_round=1)
_ERASURE = FaultSpec(kind="erasure", qubits=(2,), probability=1.0)
_TILT = SamplerSpec(kind="tilt", tilt=4.0)

#: name -> (task, tilt): the structure compiles at ``task.seed``.
CASES = {
    "rep5-none": (InjectionTask(code=_REP, rounds=3, seed=1), None),
    "rep5-static": (InjectionTask(code=_REP, fault=_STATIC, rounds=3,
                                  seed=1), None),
    "rep5-burst": (InjectionTask(code=_REP, fault=_BURST, rounds=3,
                                 seed=2), None),
    "d3-none": (InjectionTask(code=_D3, rounds=3, seed=1), None),
    "d3-static": (InjectionTask(code=_D3, fault=_STATIC, rounds=3,
                                seed=2), None),
    "d3-burst": (InjectionTask(code=_D3, fault=_BURST, rounds=3, seed=1),
                 None),
    "d3-burst-tilted": (InjectionTask(code=_D3, fault=_BURST, rounds=3,
                                      seed=1), _TILT),
    "d3-erasure": (InjectionTask(code=_D3, fault=_ERASURE, rounds=3,
                                 seed=2), None),
    "d3-mesh-none": (InjectionTask(code=_D3, arch=_MESH, rounds=3,
                                   seed=1), None),
    "d3-mesh-static": (InjectionTask(code=_D3, fault=_STATIC, arch=_MESH,
                                     rounds=3, seed=2), None),
    "d5-none": (InjectionTask(code=_D5, rounds=3, seed=1), None),
    "d5-burst": (InjectionTask(code=_D5, fault=_BURST, rounds=3, seed=2),
                 None),
}


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def digest(task: InjectionTask, tilt) -> dict:
    """What one compiled program is pinned by."""
    experiment, _, swaps = _prepared(
        task.code, task.rounds, task.basis, task.arch, task.layout,
        task.decoder, task.readout)
    noise = _build_noise(task, experiment)
    structure = frame_structure(experiment.circuit, noise, rng=task.seed)
    program = structure.bind(noise, tilt)
    return {
        "swaps": swaps,
        "ops": len(program.ops),
        "fused_ops": program.fused_ops,
        "split_points": [list(p) for p in split_points(program, experiment,
                                                       3)],
        "tilted": program.log_ratios is not None,
        **{name: _sha(getattr(structure, name))
           for name in ("code", "reference_stream", "answer_slots",
                        "site_source")},
    }


def _expected() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_compiled_program_matches_its_pinned_digest(name):
    assert digest(*CASES[name]) == _expected()[name]


def test_cases_cover_swaps_tilts_and_fusion():
    expected = _expected()
    assert sorted(expected) == sorted(CASES)
    assert any(d["swaps"] for d in expected.values())
    assert any(d["tilted"] for d in expected.values())
    assert any(d["fused_ops"] for d in expected.values())
    assert all(d["split_points"] for d in expected.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(DATA, "w") as fh:
        json.dump({name: digest(*case) for name, case in CASES.items()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
