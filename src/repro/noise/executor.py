"""Noisy circuit execution.

Two batched backends share one entry point; ``backend`` names one of
them or lets the lowering choose.  Both return ``(B, cbits)`` uint8
rows here — the campaign engine takes the frame backend's packed words
directly, and rows become words when they enter a
:class:`~repro.decoders.batch.SyndromeBatch`.

* ``"tableau"`` — walk the circuit gate by gate on batched CHP
  tableaus.  Exact for anything a channel can express.  When every
  channel lowers to a site table, the walk runs natively
  (``_kernel.c``'s ``repro_tableau_run``) over the compiled
  structure's reference stream, whose noise entries are the sites
  (``stabilizer.native_blocks``).  A channel without a site table
  (:class:`~repro.logical.LogicalFaultChannel`, say) is walked by the
  numpy :class:`~repro.stabilizer.batch.BatchTableauSimulator`
  instead, the noise model injecting errors through the masked gate
  API (``stabilizer.numpy_blocks``, :func:`_walk_tableau`).  On a
  site table the two give the same records and generator state; the
  tests hold them to it.
* ``"frames"`` — compile the circuit + noise into a bit-packed
  Pauli-frame program (:mod:`repro.frames`) and propagate 64 shots per
  word.  Orders of magnitude faster; requires every channel to lower
  (:attr:`~repro.noise.base.NoiseChannel.lowers`).
* ``"auto"`` (default) — frames when the lowering is *exact* (every
  channel lowers, and every fault-reset site hits a reference-Z-
  determinate qubit), tableau otherwise.  ``"frames"`` additionally
  accepts programs with twirled reset sites — the documented
  reset-to-mixed approximation — trading a small bias at high fault
  intensity for the full speedup.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Union

import numpy as np

from .. import obs
from ..circuits import Circuit, GateType
from ..obs import prof as _prof
from ..stabilizer.batch import BatchTableauSimulator
from .base import NoiseModel

_OBS_NATIVE = obs.counter("stabilizer.native_blocks")
_OBS_NUMPY = obs.counter("stabilizer.numpy_blocks")

#: The profiler stages of a tableau walk, in ``_kernel.c``'s bucket order.
_STAGES = ("tableau.gates", "tableau.measure_det", "tableau.measure_rand",
           "tableau.noise")


def run_batch_noisy(circuit: Circuit, noise: Optional[NoiseModel],
                    batch_size: int,
                    rng: Union[np.random.Generator, int, None] = None,
                    backend: str = "auto", tilt=None, program=None):
    """Run ``batch_size`` noisy shots; returns records ``(B, cbits)``.

    Noise channels fire after each gate in model order.  A single RNG
    drives measurement randomness and noise sampling so a seed fully
    determines the run — *per backend*: the two backends draw different
    streams, so switching backends changes individual samples while
    preserving every distribution.  ``backend="frames"`` raises
    :class:`~repro.frames.FrameLoweringError` when a channel has no
    frame lowering; ``"auto"`` falls back to the tableau path instead.

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
    from ..frames import (
        FrameLoweringError,
        FrameSimulator,
        compile_frame_program,
        supports_noise,
        validate_backend,
    )

    validate_backend(backend)
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    if backend != "tableau" and supports_noise(noise):
        # Compile against a clone of the caller's stream: if "auto"
        # discards the program (twirled lowering), the tableau path
        # below still sees the untouched rng and reproduces a pinned
        # backend="tableau" run bit-for-bit.  When the frame path *is*
        # taken, the consumed state is copied back so repeated calls on
        # one Generator draw fresh samples, as the contract above says.
        frame_rng = np.random.Generator(type(rng.bit_generator)())
        frame_rng.bit_generator.state = rng.bit_generator.state
        try:
            compiled = compile_frame_program(circuit, noise, rng=frame_rng,
                                             tilt=tilt)
        except FrameLoweringError:
            if backend == "frames":
                raise
            compiled = None  # auto: anything uncompilable takes tableau
        if compiled is not None and (backend == "frames"
                                     or compiled.exact_noise):
            sim = FrameSimulator(circuit.num_qubits, batch_size,
                                 rng=frame_rng)
            records = sim.run(compiled)
            rng.bit_generator.state = frame_rng.bit_generator.state
            return records if tilt is None else (records, sim.shot_weights())
        if program is None:
            program = compiled
    elif backend == "frames":
        raise FrameLoweringError(
            "noise model has channels without a frame lowering")
    if not supports_noise(noise):
        return _walk_tableau(circuit, noise, batch_size, rng, tilt)
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


def _walk_tableau(circuit: Circuit, noise: Optional[NoiseModel],
                  batch_size: int, rng: np.random.Generator, tilt=None):
    """The tableau backend on the numpy
    :class:`~repro.stabilizer.batch.BatchTableauSimulator`: what
    :func:`run_batch_noisy` runs for a channel without a site table,
    with its return convention."""
    _OBS_NUMPY.inc()
    sim = BatchTableauSimulator(circuit.num_qubits, batch_size, rng=rng)
    record = np.zeros((batch_size, max(circuit.num_cbits, 1)), dtype=np.uint8)
    if tilt is not None:
        sim.log_weights = np.zeros(batch_size)
    if noise is not None:
        noise.begin_run(tilt)
    prof = _prof._ACTIVE
    if prof is not None:
        _walk_tableau_profiled(prof, sim, circuit, noise, record, rng)
    else:
        for gate in circuit:
            sim.apply(gate, record=record)
            if noise is not None and gate.gate_type is not GateType.BARRIER:
                noise.apply_batch(gate, sim, rng)
    return record if tilt is None else (record, np.exp(sim.log_weights))


def _walk_tableau_profiled(prof, sim: BatchTableauSimulator,
                           circuit: Circuit, noise: Optional[NoiseModel],
                           record: np.ndarray,
                           rng: np.random.Generator) -> None:
    """The tableau walk of :func:`run_batch_noisy` with its wall time
    split into ``tableau.gates`` / ``tableau.measure_det`` /
    ``tableau.measure_rand`` / ``tableau.noise`` stages.

    The simulator clocks its two measurement branches wherever they are
    entered from (circuit measurements and resets land in ``gates``
    minus that time, channel resets in ``noise`` minus it), so the four
    buckets partition the walk.  Clocks only — the rng stream and the
    records are those of the unprofiled loop.
    """
    clock = sim.measure_clock = [0.0, 0.0]
    gates_s = noise_s = 0.0
    t0 = perf_counter()
    for gate in circuit:
        m0 = clock[0] + clock[1]
        sim.apply(gate, record=record)
        t1 = perf_counter()
        m1 = clock[0] + clock[1]
        gates_s += t1 - t0 - (m1 - m0)
        t0 = t1
        if noise is not None and gate.gate_type is not GateType.BARRIER:
            noise.apply_batch(gate, sim, rng)
            t0 = perf_counter()
            noise_s += t0 - t1 - (clock[0] + clock[1] - m1)
    prof.stage("tableau.gates", gates_s)
    prof.stage("tableau.measure_det", clock[0])
    prof.stage("tableau.measure_rand", clock[1])
    prof.stage("tableau.noise", noise_s)

