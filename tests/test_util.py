"""Tests for shared utilities (RNG spawning)."""

from repro.util import task_seed
from repro.util.rng import block_seed, derive_seed, frame_ref_seed


class TestRng:
    def test_task_seed_stable_under_count(self):
        # Task 3's seed must not depend on how many tasks exist.
        assert task_seed(1, 3) == task_seed(1, 3)
        assert task_seed(1, 3) != task_seed(1, 4)
        assert task_seed(1, 3) != task_seed(2, 3)

    def test_task_seeds_unique(self):
        seeds = [task_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_seeds_fit_uint64(self):
        for seed in (derive_seed(0), derive_seed(7, 3, 1), task_seed(1, 0),
                     block_seed(task_seed(1, 0), 9), frame_ref_seed(11)):
            assert 0 <= seed < 2 ** 64

    def test_block_seeds_unique_and_per_task(self):
        blocks = [block_seed(task_seed(1, 0), b) for b in range(100)]
        assert len(set(blocks)) == 100
        assert block_seed(task_seed(1, 0), 5) != block_seed(task_seed(1, 1), 5)

    def test_frame_ref_seed_never_a_block_seed(self):
        # The reference pass's stream must not reuse any block's stream,
        # however many blocks the task runs.
        ts = task_seed(3, 2)
        assert frame_ref_seed(ts) == frame_ref_seed(ts)
        assert frame_ref_seed(ts) not in {block_seed(ts, b)
                                          for b in range(1000)}

    def test_derive_seed_path_is_ordered(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
        assert derive_seed(5, 1) != derive_seed(5, 1, 0)
