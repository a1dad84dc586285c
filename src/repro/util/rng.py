"""Deterministic random-stream management.

Campaigns spawn one independent, reproducible stream per task from a
single root seed using :class:`numpy.random.SeedSequence`, so results
are bit-identical regardless of execution order or worker count —
a requirement for the paper's "deterministically chosen" configurations.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

RngLike = Union[np.random.Generator, int, None]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Coerce ``None`` / int seed / Generator into a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn_seeds(root_seed: int, count: int) -> List[int]:
    """Derive ``count`` independent 64-bit seeds from ``root_seed``."""
    ss = np.random.SeedSequence(root_seed)
    return [int(s.generate_state(1, dtype=np.uint64)[0])
            for s in ss.spawn(count)]


def derive_seed(base_seed: int, *path: int) -> int:
    """Derive a child seed from ``base_seed`` along an integer path.

    Uses ``SeedSequence`` spawn keys, so children are statistically
    independent of each other and of the base stream, and the value
    depends only on ``(base_seed, path)`` — never on how many siblings
    exist or in which order they are derived.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def task_seed(root_seed: int, task_index: int) -> int:
    """Stable per-task seed (independent of how many tasks exist)."""
    return derive_seed(root_seed, task_index)


def block_seed(task_seed_: int, block_index: int) -> int:
    """Seed for one fixed-size simulation block of a chunked task.

    Chunked execution partitions a task's shots into canonical blocks;
    each block owns an independent stream derived from the task seed,
    so results are identical however the blocks are grouped into
    chunks, scheduled, or resumed.
    """
    return derive_seed(task_seed_, block_index)


def frame_ref_seed(task_seed_: int) -> int:
    """Seed for a task's frame-backend reference pass.

    Uses a two-element spawn path so it can never collide with any
    single-index :func:`block_seed` stream, however deep a campaign's
    block counter runs.  The reference pass runs at this seed once per
    task — in a compile, or in a
    :meth:`~repro.frames.FrameStructure.reseed` of the structure an
    earlier point on the circuit compiled, which gives the same
    structure — so the reference sample, and therefore every block's
    frame stream, is fixed by the task seed alone, preserving the
    chunking-invariance contract.
    """
    return derive_seed(task_seed_, 1, 0)
