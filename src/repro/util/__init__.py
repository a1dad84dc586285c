"""Shared utilities: RNG spawning, word-level bit primitives."""

from .rng import as_generator, spawn_seeds, task_seed

__all__ = [
    "as_generator",
    "spawn_seeds",
    "task_seed",
]
