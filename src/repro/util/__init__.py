"""Shared utilities: RNG spawning."""

from .rng import as_generator, spawn_seeds, task_seed

__all__ = [
    "as_generator",
    "spawn_seeds",
    "task_seed",
]
