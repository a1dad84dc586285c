"""Tests for shared utilities (RNG spawning)."""

import numpy as np

from repro.util import as_generator, spawn_seeds, task_seed


class TestRng:
    def test_as_generator_from_none(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_as_generator_from_int(self):
        a = as_generator(7).integers(1000)
        b = as_generator(7).integers(1000)
        assert a == b

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_seeds_unique(self):
        seeds = spawn_seeds(42, 100)
        assert len(set(seeds)) == 100

    def test_spawn_seeds_deterministic(self):
        assert spawn_seeds(42, 5) == spawn_seeds(42, 5)

    def test_task_seed_stable_under_count(self):
        # Task 3's seed must not depend on how many tasks exist.
        assert task_seed(1, 3) == task_seed(1, 3)
        assert task_seed(1, 3) != task_seed(1, 4)
        assert task_seed(1, 3) != task_seed(2, 3)
