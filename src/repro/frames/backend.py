"""Frame-backend entry points mirroring the tableau executor.

:func:`run_batch_frames` is the drop-in counterpart of
:func:`repro.noise.executor.run_batch_noisy`: same signature, same
record shape, an order of magnitude (or three) faster on the
deterministic Clifford memory circuits the campaigns hammer.  A single
``rng`` drives the reference pass, the Z-frame initialisation and every
noise sampler, so a seed fully determines the run.

Campaign code resolves a program once per task — binding it to a
structure shared by every task on the circuit that fires at the same
sites, see :func:`repro.injection.campaign._frame_program` — and reuses
it across the task's simulation blocks; this module-level helper
recompiles per call, which is the right trade-off for ad-hoc and test
use.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..circuits import Circuit
from ..noise.base import NoiseModel
from .program import FrameProgram, compile_frame_program
from .simulator import FrameSimulator

#: Recognised backend selectors, shared by the executor, the campaign
#: engine, the sweep spec and the CLI.
BACKENDS = ("auto", "frames", "tableau")


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def run_batch_frames(circuit: Circuit, noise: Optional[NoiseModel],
                     batch_size: int,
                     rng: Union[np.random.Generator, int, None] = None,
                     program: Optional[FrameProgram] = None) -> np.ndarray:
    """Run ``batch_size`` noisy shots via Pauli frames.

    Returns records ``(B, cbits)`` uint8.  Pass a precompiled
    ``program`` to skip the reference pass (it must have been compiled
    from the same circuit/noise pair).
    """
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    if program is None:
        program = compile_frame_program(circuit, noise, rng=rng)
    sim = FrameSimulator(circuit.num_qubits, batch_size, rng=rng)
    return sim.run(program)


__all__ = [
    "BACKENDS",
    "FrameProgram",
    "compile_frame_program",
    "run_batch_frames",
    "validate_backend",
]
