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
* :func:`run_batch_frames` — drop-in counterpart of
  :func:`repro.noise.executor.run_batch_noisy`.
"""

from .backend import BACKENDS, run_batch_frames, validate_backend
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
    fuse_layers,
    site_signature,
)
from .simulator import FrameSimulator

__all__ = [
    "BACKENDS",
    "FrameProgram",
    "FrameSimulator",
    "FrameStructure",
    "bernoulli_words",
    "column_counts",
    "compile_frame_program",
    "frame_structure",
    "fuse_layers",
    "pack_bool",
    "popcount_words",
    "random_words",
    "run_batch_frames",
    "site_signature",
    "unpack_words",
    "validate_backend",
    "words_for",
]
