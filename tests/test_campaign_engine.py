"""Tests for the campaign orchestration engine: chunked streaming,
adaptive shot allocation, persistent store / resume, sweep specs."""

import json

import numpy as np
import pytest

from repro.analysis.stats import wilson_halfwidth
from repro.injection import (
    SIM_BLOCK,
    AdaptivePolicy,
    Campaign,
    CampaignStore,
    CodeSpec,
    FaultSpec,
    InjectionTask,
    build_sweep,
    iter_task_chunks,
    run_task,
    sweep_size,
    task_key,
)


def mid_rate_task(shots=1536, seed=42, **kw):
    """A cheap point with LER ~0.25 (repetition-3 at p=0.05)."""
    return InjectionTask(code=CodeSpec("repetition", (3, 1)),
                        intrinsic_p=0.05, shots=shots, seed=seed, **kw)


class TestExecutorInvariance:
    """Whether a block is sampled and compiled on ``_kernel.c`` or on
    its oracles (``oracles.frames``) moves no count, in the parent or
    in forked workers."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_equal_on_the_oracles(self, workers, monkeypatch):
        from oracles import frames as oracle
        from repro.frames import FrameSimulator

        strike = FaultSpec(kind="radiation", root_qubit=1, time_index=1)
        tasks = [mid_rate_task(shots=1536, backend="frames", fault=fault,
                               ).with_tags(idx=i)
                 for i, fault in enumerate((FaultSpec(), strike))]
        policy = AdaptivePolicy(rel_halfwidth=0.2, min_shots=512)

        def run():
            campaign = Campaign(tasks, root_seed=11)
            return (campaign.run(workers=workers).counts(),
                    campaign.run(workers=workers, adaptive=policy).counts())

        native = run()
        ran = []

        def numpy_block(sim, *args):
            ran.append(sim.batch_size)
            oracle.exec_numpy(sim, *args)

        monkeypatch.setattr(FrameSimulator, "_exec_native", numpy_block)
        with oracle.python_reference():
            assert run() == native
        if workers == 1:
            assert ran


class TestChunkedExecution:
    def test_chunked_identical_to_single_chunk(self):
        """The reproducibility contract: counts depend only on the task,
        never on how shots are grouped into chunks."""
        t = mid_rate_task(shots=1300)
        single = run_task(t, chunk_shots=t.shots)      # one chunk
        for chunk_shots in (SIM_BLOCK, 1000, None):
            assert run_task(t, chunk_shots=chunk_shots).counts \
                == single.counts

    def test_streamed_chunks_sum_to_run_task(self):
        t = mid_rate_task(shots=1100)
        chunks = list(iter_task_chunks(t, chunk_shots=SIM_BLOCK))
        assert [c.start for c in chunks] == [0, 512, 1024]
        assert sum(c.shots for c in chunks) == t.shots
        total = (sum(c.shots for c in chunks),
                 sum(c.errors for c in chunks),
                 sum(c.raw_errors for c in chunks),
                 sum(c.corrections_applied for c in chunks))
        assert total == run_task(t).counts

    def test_resume_from_prior_identical(self):
        """Banking the first chunk and continuing equals one pass."""
        t = mid_rate_task(shots=1300)
        full = run_task(t, chunk_shots=SIM_BLOCK)
        first = next(iter_task_chunks(t, chunk_shots=SIM_BLOCK))
        resumed = run_task(t, chunk_shots=SIM_BLOCK,
                           prior=(first.end, first.errors,
                                  first.raw_errors,
                                  first.corrections_applied,
                                  first.elapsed_s, 1))
        assert resumed.counts == full.counts
        assert resumed.chunks == full.chunks

    def test_misaligned_resume_rejected(self):
        t = mid_rate_task()
        with pytest.raises(ValueError):
            next(iter_task_chunks(t, start_shot=100))

    def test_chunk_count_recorded(self):
        t = mid_rate_task(shots=1300)
        assert run_task(t, chunk_shots=SIM_BLOCK).chunks == 3


class TestSpans:
    """The engine executes canonical blocks a span at a time; where a
    span is cut is scheduling, never counts."""

    @staticmethod
    def chunks(task, chunk_shots, width, monkeypatch, **kw):
        from repro.injection import campaign as engine

        monkeypatch.setattr(engine, "WIDE_BLOCKS", width)
        rows = []
        for chunk in iter_task_chunks(task, chunk_shots=chunk_shots, **kw):
            row = chunk.to_row()
            del row["elapsed_s"]
            rows.append(row)
        return rows

    @pytest.mark.parametrize("backend", ["frames", "tableau"])
    @pytest.mark.parametrize("blocks", [1, 2, 3, 8, 12])
    def test_chunks_identical_however_spans_are_cut(self, blocks, backend,
                                                    monkeypatch):
        """Chunks narrower than a span (several to a span), not
        dividing it (3), as wide (8) and wider (12: a span is a piece
        of a chunk), with a partial final block."""
        t = mid_rate_task(shots=25 * SIM_BLOCK + 100, backend=backend)
        chunk_shots = blocks * SIM_BLOCK
        want = self.chunks(t, chunk_shots, 1, monkeypatch)
        assert sum(row["shots"] for row in want) == t.shots
        assert all(row["shots"] == chunk_shots for row in want[:-1])
        for width in (2, 8):
            assert self.chunks(t, chunk_shots, width, monkeypatch) == want
        # a lease in the middle of the stream
        assert self.chunks(t, chunk_shots, 8, monkeypatch,
                           start_shot=chunk_shots,
                           total_shots=min(3 * chunk_shots, t.shots)) \
            == want[1:3]

    def test_chunk_seconds_are_the_spans_wall(self, monkeypatch):
        """A span's wall is apportioned to its chunks by shots: chunk
        times add up to time really spent, whatever the width."""
        import time

        from repro.injection import campaign as engine

        t = mid_rate_task(shots=16 * SIM_BLOCK, backend="frames")
        list(iter_task_chunks(t))               # compile outside the clock
        for width in (1, 8):
            monkeypatch.setattr(engine, "WIDE_BLOCKS", width)
            t0 = time.perf_counter()
            chunks = list(iter_task_chunks(t))
            wall = time.perf_counter() - t0
            assert len(chunks) == 8
            assert all(c.elapsed_s > 0 for c in chunks)
            assert 0.5 * wall < sum(c.elapsed_s for c in chunks) <= wall

    def test_counters_count_blocks_and_chunks(self, monkeypatch):
        from repro import obs

        t = mid_rate_task(shots=6 * SIM_BLOCK + 10, backend="frames")
        names = ("engine.blocks", "engine.chunks", "engine.shots",
                 "frames.blocks")
        before = {name: obs.counter(name).value for name in names}
        self.chunks(t, 2 * SIM_BLOCK, 8, monkeypatch)
        assert [obs.counter(name).value - before[name] for name in names] \
            == [7, 4, t.shots, 7]


class TestAdaptivePolicy:
    def test_fake_bernoulli_hits_precision_target(self):
        """On a seeded fake error stream, the policy stops once — and
        only once — the Wilson half-width meets the relative target."""
        rng = np.random.default_rng(7)
        policy = AdaptivePolicy(rel_halfwidth=0.2, min_shots=256,
                                min_errors=5)
        p_true, chunk, shots, errors = 0.05, 256, 0, 0
        trajectory = []
        while not policy.should_stop(errors, shots, task_shots=100_000):
            errors += int(rng.binomial(chunk, p_true))
            shots += chunk
            trajectory.append((errors, shots))
        assert shots < 100_000          # stopped well before the ceiling
        half = wilson_halfwidth(errors, shots)
        assert half <= 0.2 * (errors / shots)
        # every earlier chunk boundary genuinely missed the target
        # (the policy never over-samples past the first satisfying one)
        for e, s in trajectory[:-1]:
            assert not policy.satisfied(e, s)

    def test_zero_errors_runs_to_ceiling(self):
        policy = AdaptivePolicy(rel_halfwidth=0.2, min_shots=256)
        assert not policy.satisfied(0, 10_000_000)
        assert policy.should_stop(0, 5000, task_shots=5000)

    def test_real_task_uses_fewer_shots_than_ceiling(self):
        """Acceptance: mid-rate point resolves early and meets target."""
        t = mid_rate_task(shots=16384, seed=7)
        policy = AdaptivePolicy(rel_halfwidth=0.25, min_shots=512,
                                min_errors=5)
        r = run_task(t, adaptive=policy)
        assert r.shots < t.shots
        assert wilson_halfwidth(r.errors, r.shots) \
            <= 0.25 * r.logical_error_rate
        # deterministic: the adaptive trajectory replays exactly
        assert run_task(t, adaptive=policy).counts == r.counts

    def test_adaptive_campaign_spends_less(self):
        tasks = [mid_rate_task(shots=8192, seed=s) for s in (3, 4)]
        fixed = Campaign(tasks).run(workers=1)
        adaptive = Campaign(tasks).run(
            workers=1, adaptive=AdaptivePolicy(rel_halfwidth=0.3))
        assert adaptive.total_shots() < fixed.total_shots()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(rel_halfwidth=0.0)


class TestStoreResume:
    def make_tasks(self, n=4, shots=600):
        return [InjectionTask(code=CodeSpec("repetition", (3, 1)),
                              intrinsic_p=0.05, shots=shots
                              ).with_tags(idx=i) for i in range(n)]

    def test_task_key_stable_and_distinct(self):
        a, b = self.make_tasks(2)
        assert task_key(a) == task_key(a)
        assert task_key(a) != task_key(b)       # tags differ
        assert task_key(a) != task_key(
            InjectionTask(code=CodeSpec("repetition", (3, 1)),
                          intrinsic_p=0.05, shots=600,
                          seed=1).with_tags(idx=0))  # seed differs

    def test_a_point_is_hashed_once(self, tmp_path, monkeypatch):
        """The resume check, the plan and the done record all need a
        point's key (and the record its canonical form): one
        ``canonical_task`` walk per distinct task serves them all —
        and the keys and the store's bytes are what they were."""
        from repro.injection import store as store_module

        calls = []
        walk = store_module.canonical_task

        def counting(task):
            calls.append(task)
            return walk(task)

        monkeypatch.setattr(store_module, "canonical_task", counting)
        store_module._identity.cache_clear()
        tasks = self.make_tasks(4)
        campaign = Campaign(tasks, root_seed=11)
        path = tmp_path / "store.jsonl"
        results = campaign.run(workers=1, resume=CampaignStore(path))
        assert len(calls) == len(set(calls)) == 4
        campaign.run(workers=1, resume=CampaignStore(path))
        assert len(calls) == 4
        records = [json.loads(line) for line in open(path)]
        done = [rec for rec in records if rec["kind"] == "done"]
        assert [rec["key"] for rec in done] \
            == [task_key(r.task) for r in results]
        assert [rec["task"] for rec in done] == json.loads(json.dumps(
            [walk(r.task) for r in results], default=str))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_campaign_resumes_identically(self, tmp_path, workers):
        """Acceptance: run N of M points, 'die', resume → same ResultSet
        as an uninterrupted run."""
        tasks = self.make_tasks(5)
        uninterrupted = Campaign(tasks, root_seed=11).run(
            workers=workers)
        path = tmp_path / "store.jsonl"
        # first life: only 3 of 5 points get to run before the "kill"
        Campaign(tasks[:3], root_seed=11).run(
            workers=workers, resume=CampaignStore(path))
        # second life: full campaign against the same store
        resumed = Campaign(tasks, root_seed=11).run(
            workers=workers, resume=CampaignStore(path))
        assert resumed.counts() == uninterrupted.counts()
        # and all 5 are now banked: a third run re-executes nothing
        store = CampaignStore(path)
        assert len(store) == 5
        again = Campaign(tasks, root_seed=11).run(workers=workers,
                                                  resume=store)
        assert again.counts() == uninterrupted.counts()

    def test_mid_point_chunk_resume(self, tmp_path):
        """A kill mid-point loses at most a chunk: banked chunks are
        continued, not resampled."""
        t = mid_rate_task(shots=1536, seed=9)
        path = tmp_path / "store.jsonl"
        store = CampaignStore(path)
        key = task_key(t)
        # bank only the first chunk, as if killed mid-point
        store.append_chunk(key, next(iter_task_chunks(
            t, chunk_shots=SIM_BLOCK)))
        store.close()
        st2 = CampaignStore(path)
        assert st2.partial(key)[0] == SIM_BLOCK
        rs = Campaign([t]).run(workers=1, resume=st2)
        assert rs[0].counts == run_task(t).counts

    def test_torn_final_line_tolerated(self, tmp_path):
        t = mid_rate_task(shots=600, seed=3)
        path = tmp_path / "store.jsonl"
        Campaign([t]).run(workers=1, resume=CampaignStore(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "chunk", "key": "crash')  # torn write
        store = CampaignStore(path)
        assert store.result_for(t) is not None

    def test_adaptive_with_store_resumes(self, tmp_path):
        t = mid_rate_task(shots=16384, seed=7)
        policy = AdaptivePolicy(rel_halfwidth=0.25)
        path = tmp_path / "store.jsonl"
        first = Campaign([t]).run(workers=1, adaptive=policy,
                                  resume=CampaignStore(path))
        second = Campaign([t]).run(workers=1, adaptive=policy,
                                   resume=CampaignStore(path))
        assert second[0].counts == first[0].counts

    def test_fixed_resume_tops_up_adaptive_result(self, tmp_path):
        """An adaptive early stop must not alias a full-budget result:
        resuming the same store in fixed mode continues sampling to the
        budget — and the banked prefix makes the counts identical to a
        fresh fixed run."""
        t = mid_rate_task(shots=4096, seed=7)
        path = tmp_path / "store.jsonl"
        policy = AdaptivePolicy(rel_halfwidth=0.25)
        early = Campaign([t]).run(workers=1, adaptive=policy,
                                  resume=CampaignStore(path))
        assert early[0].shots < t.shots
        topped = Campaign([t]).run(workers=1,
                                   resume=CampaignStore(path))
        assert topped[0].shots == t.shots
        assert topped[0].counts == run_task(t).counts
        # and an adaptive resume happily reuses the richer result
        reread = Campaign([t]).run(workers=1, adaptive=policy,
                                   resume=CampaignStore(path))
        assert reread[0].counts == topped[0].counts

    def test_raising_ceiling_over_partial_block_result(self, tmp_path):
        """A completed point whose budget wasn't a SIM_BLOCK multiple
        (partial final block) must still be extendable: the truncated
        block is dropped from the resumable prefix and resampled at
        full size, matching a fresh run at the higher ceiling."""
        t = mid_rate_task(shots=1300, seed=5)      # 1300 = 2.54 blocks
        path = tmp_path / "store.jsonl"
        banked = Campaign([t]).run(workers=1,
                                   resume=CampaignStore(path))
        assert banked[0].shots == 1300
        policy = AdaptivePolicy(rel_halfwidth=1e-6, min_shots=1,
                                max_shots=2048)    # forces a top-up
        topped = Campaign([t]).run(workers=1, adaptive=policy,
                                   resume=CampaignStore(path))
        fresh = run_task(t, adaptive=policy)
        assert topped[0].counts == fresh.counts


class TestSweepSpec:
    SPEC = {
        "codes": [{"kind": "repetition", "distance": [3, 1]},
                  ["repetition", [5, 1]]],
        "archs": [None, {"name": "mesh", "args": [2, 5]}],
        "faults": [{"kind": "none"},
                   {"kind": "radiation", "root_qubit": 1,
                    "time_index": 0}],
        "p_values": [0.01, 0.05],
        "shots": 128,
        "root_seed": 13,
        "tags": {"sweep": "unit"},
    }

    def test_expansion(self):
        campaign = build_sweep(self.SPEC)
        assert len(campaign) == sweep_size(self.SPEC) == 16
        tags = dict(campaign.tasks[0].tags)
        assert tags["sweep"] == "unit"
        assert tags["code"] == "repetition-(3,1)"
        assert tags["fault"] == "none"
        assert campaign.root_seed == 13
        assert all(t.shots == 128 for t in campaign.tasks)

    def test_defaults(self):
        campaign = build_sweep({"codes": [["repetition", [3, 1]]]})
        assert len(campaign) == 1
        assert campaign.tasks[0].arch is None
        assert campaign.tasks[0].fault.kind == "none"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec"):
            build_sweep({"codes": [["repetition", [3, 1]]],
                         "sots": 100})

    def test_empty_codes_rejected(self):
        with pytest.raises(ValueError, match="codes"):
            build_sweep({"codes": []})

    def test_empty_axis_rejected_everywhere(self):
        """build_sweep and sweep_size share validation: an explicitly
        empty axis fails loudly instead of silently expanding to zero
        points (or the two disagreeing)."""
        spec = {"codes": [["repetition", [3, 1]]], "archs": []}
        with pytest.raises(ValueError, match="archs"):
            build_sweep(spec)
        with pytest.raises(ValueError, match="archs"):
            sweep_size(spec)

    def test_json_roundtrip_runs(self, tmp_path):
        spec = {"codes": [["repetition", [3, 1]]], "shots": 128,
                "p_values": [0.05]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        campaign = build_sweep(json.loads(path.read_text()))
        rs = campaign.run(workers=1)
        assert len(rs) == 1 and rs[0].shots == 128
