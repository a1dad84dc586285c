"""Shared utilities: RNG spawning, word-level bit primitives."""

from .rng import task_seed

__all__ = [
    "task_seed",
]
