"""Noisy circuit execution.

Two batched backends share one entry point; ``backend`` names one of
them or lets the lowering choose.  Both return ``(B, cbits)`` uint8
rows here — the campaign engine takes the frame backend's packed words
directly, and rows become words when they enter a
:class:`~repro.decoders.batch.SyndromeBatch`.

* ``"tableau"`` — walk the circuit gate by gate on batched CHP
  tableaus (``_kernel.c``'s ``repro_tableau_run``), over the compiled
  structure's reference stream, whose noise entries are the sites
  (``stabilizer.native_blocks``).  Exact for any site table.
* ``"frames"`` — compile the circuit + noise into a bit-packed
  Pauli-frame program (:mod:`repro.frames`) and propagate 64 shots per
  word.  Orders of magnitude faster.
* ``"auto"`` (default) — frames when the lowering is *exact* (every
  fault-reset site hits a reference-Z-determinate qubit), tableau
  otherwise.  ``"frames"`` additionally accepts programs with twirled
  reset sites — the documented reset-to-mixed approximation — trading a
  small bias at high fault intensity for the full speedup.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .. import obs
from ..circuits import Circuit
from ..obs import prof as _prof
from .base import NoiseModel

_OBS_NATIVE = obs.counter("stabilizer.native_blocks")

#: Recognised backend selectors, shared by the executor, the campaign
#: engine, the sweep spec and the CLI.
BACKENDS = ("auto", "frames", "tableau")

#: The profiler stages of a tableau walk, in ``_kernel.c``'s bucket order.
_STAGES = ("tableau.gates", "tableau.measure_det", "tableau.measure_rand",
           "tableau.noise")


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def run_batch_noisy(circuit: Circuit, noise: Optional[NoiseModel],
                    batch_size: int,
                    rng: Union[np.random.Generator, int, None] = None,
                    backend: str = "auto", tilt=None, program=None):
    """Run ``batch_size`` noisy shots; returns records ``(B, cbits)``.

    Noise channels fire after each gate in model order.  A single RNG
    drives measurement randomness and noise sampling so a seed fully
    determines the run — *per backend*: the two backends draw different
    streams, so switching backends changes individual samples while
    preserving every distribution.  Every backend raises
    :class:`NotImplementedError` for a channel without a site table.

    With ``tilt`` (a tilt :class:`~repro.rare.sampler.SamplerSpec`)
    both backends sample every site table
    :meth:`~repro.noise.base.SiteTable.tilted`, and the call returns
    ``(records, weights)``: the records and each shot's importance
    weight.

    ``program`` is read on the tableau path only: a
    :class:`~repro.frames.FrameProgram` bound from a structure of
    ``circuit`` and ``noise`` (with ``tilt``), which the native tableau
    executes instead of compiling one of its own.
    """
    # Imported lazily: repro.frames consumes this package's channel
    # types, so a module-level import would be circular.
    from ..frames import FrameSimulator, compile_frame_program

    validate_backend(backend)
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    if backend != "tableau":
        # Compile against a clone of the caller's stream: if "auto"
        # discards the program (twirled lowering), the tableau path
        # below still sees the untouched rng and reproduces a pinned
        # backend="tableau" run bit-for-bit.  When the frame path *is*
        # taken, the consumed state is copied back so repeated calls on
        # one Generator draw fresh samples, as the contract above says.
        frame_rng = np.random.Generator(type(rng.bit_generator)())
        frame_rng.bit_generator.state = rng.bit_generator.state
        compiled = compile_frame_program(circuit, noise, rng=frame_rng,
                                         tilt=tilt)
        if backend == "frames" or compiled.exact_noise:
            sim = FrameSimulator(circuit.num_qubits, batch_size,
                                 rng=frame_rng)
            records = sim.run(compiled)
            rng.bit_generator.state = frame_rng.bit_generator.state
            return records if tilt is None else (records, sim.shot_weights())
        if program is None:
            program = compiled
    from ..frames import _native    # the first tableau run

    kernel = _native.kernel()
    if batch_size <= 0:
        raise ValueError("need at least one shot")
    if program is None:
        # The tableau reads no reference answer: compile on a scratch
        # generator and leave the caller's stream alone.
        program = compile_frame_program(
            circuit, noise, rng=np.random.default_rng(0), tilt=tilt)
    elif program.num_qubits != circuit.num_qubits:
        raise ValueError("program compiled for another register width")
    _OBS_NATIVE.inc()
    prof = _prof._ACTIVE
    records, log_weights, stages = kernel.tableau(
        program, batch_size, rng, tilt is not None, prof is not None)
    if prof is not None:
        for name, seconds in zip(_STAGES, stages):
            prof.stage(name, seconds)
    return records if tilt is None else (records, np.exp(log_weights))

