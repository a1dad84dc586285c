"""Bit-packed Pauli-frame sampling backend.

The fast path for fault-injection campaigns: one noiseless reference
run of the memory circuit plus per-shot Pauli-frame propagation with 64
shots packed per ``uint64`` word.

* :func:`compile_frame_program` — reference pass + noise lowering:
  :func:`frame_structure` (everything probability-free, shareable
  across noise models with one :func:`site_signature`, and across
  reference seeds through :meth:`FrameStructure.reseed`) followed by
  :meth:`FrameStructure.bind`.
* :class:`FrameSimulator` — bit-packed frame propagation.

:func:`repro.noise.executor.run_batch_noisy` with ``backend="frames"``
composes the two for one batch.
"""

from .packing import (
    bernoulli_words,
    column_counts,
    pack_bool,
    popcount_words,
    random_words,
    unpack_words,
    words_for,
)
from .program import (
    FrameProgram,
    FrameStructure,
    compile_frame_program,
    frame_structure,
    site_signature,
)
from .simulator import FrameSimulator

__all__ = [
    "FrameProgram",
    "FrameSimulator",
    "FrameStructure",
    "bernoulli_words",
    "column_counts",
    "compile_frame_program",
    "frame_structure",
    "pack_bool",
    "popcount_words",
    "random_words",
    "site_signature",
    "unpack_words",
    "words_for",
]
