"""Tests for the multiprocess campaign scheduler:
worker-count determinism, watermark-based adaptive stopping, the
single-writer store contract, and crash tolerance."""

import json
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro import obs

from repro.injection import (
    SIM_BLOCK,
    AdaptivePolicy,
    Campaign,
    CampaignStore,
    CodeSpec,
    FaultSpec,
    InjectionTask,
    build_sweep,
    run_task,
)
from repro.injection.results import ZERO_PRIOR, ChunkResult
from repro.injection.store import task_key
from repro.rare.sampler import as_sampler
from repro.parallel import TaskPlan, default_workers, plan_leases
from repro.parallel.scheduler import Scheduler
from repro.parallel.worker import (CRASH_AFTER_ENV, CRASH_WORKER_ENV,
                                   execute_lease)
from repro.service.dispatcher import Dispatcher, execute_lease_wire

from proctree import alive, children

DATA = os.path.join(os.path.dirname(__file__), "data")


def d3_sweep_tasks(backend, shots=1536):
    """A small d=3 sweep: two noise levels, clean + radiation fault."""
    spec = {
        "codes": [["xxzz", [3, 3]]],
        "faults": [{"kind": "none"},
                   {"kind": "radiation", "root_qubit": 2,
                    "time_index": 0}],
        "p_values": [0.01, 0.02],
        "shots": shots,
        "backend": backend,
        "root_seed": 29,
    }
    return build_sweep(spec)


def mid_rate_tasks(n=3, shots=4096, seed=0):
    return [InjectionTask(code=CodeSpec("repetition", (3, 1)),
                          intrinsic_p=0.05, shots=shots, seed=seed,
                          backend="tableau").with_tags(idx=i)
            for i in range(n)]


def interrupted_run(campaign, store_path, nth=3, **run_kwargs):
    """Run ``campaign`` on two workers against ``store_path`` and hit
    it with a KeyboardInterrupt as its ``nth`` chunk arrives (``nth -
    1`` have been banked)."""
    original = Scheduler._bank
    seen = {"chunks": 0}

    def interrupting(self, *args, **kwargs):
        seen["chunks"] += 1
        if seen["chunks"] == nth:
            raise KeyboardInterrupt
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scheduler, "_bank", interrupting)
        with pytest.warns(RuntimeWarning, match="campaign interrupted"):
            with pytest.raises(KeyboardInterrupt):
                campaign.run(workers=2, resume=store_path, **run_kwargs)


def chunk_records(path):
    """The chunk records of a store file, in file order."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return [rec for rec in records if rec["kind"] == "chunk"]


class TestWorkerCountDeterminism:
    """The subsystem's headline contract: counts and adaptive stop
    shots are bit-identical for workers=1|2|4."""

    @pytest.mark.parametrize("backend", ["frames", "tableau"])
    def test_fixed_budget_counts_identical(self, backend):
        campaign = d3_sweep_tasks(backend)
        serial = Campaign(campaign.tasks, root_seed=29).run(workers=1)
        for workers in (2, 3, 4):
            par = Campaign(campaign.tasks, root_seed=29).run(
                workers=workers)
            assert par.counts() == serial.counts()

    @pytest.mark.parametrize("backend", ["frames", "tableau"])
    def test_adaptive_stop_shots_identical(self, backend):
        """Globally-aggregated watermark decisions: parallel runs stop
        each point at exactly the serial stop shot."""
        campaign = d3_sweep_tasks(backend, shots=8192)
        policy = AdaptivePolicy(rel_halfwidth=0.3, min_shots=512)
        serial = Campaign(campaign.tasks, root_seed=29).run(
            workers=1, adaptive=policy)
        par = Campaign(campaign.tasks, root_seed=29).run(
            workers=4, adaptive=policy)
        assert [r.shots for r in par] == [r.shots for r in serial]
        assert par.counts() == serial.counts()
        # the policy actually stopped something early, or the test
        # proves nothing about stop-point determinism
        assert any(r.shots < t.shots
                   for r, t in zip(serial, campaign.tasks))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_identical_under_either_frames_executor(
            self, workers):
        """Forked workers inherit the parent's executor: on the frames
        kernel's oracles (``oracles.frames``) they sample the same
        counts and stop at the same adaptive shots."""
        from oracles import frames as oracle

        campaign = d3_sweep_tasks("frames", shots=8192)
        policy = AdaptivePolicy(rel_halfwidth=0.3, min_shots=512)

        def run():
            results = Campaign(campaign.tasks, root_seed=29).run(
                workers=workers, adaptive=policy)
            return [r.shots for r in results], results.counts()

        native = run()
        with oracle.numpy_executor(), oracle.python_reference():
            assert run() == native

    def test_single_deep_task_splits_across_workers(self):
        """Block-level scheduling parallelizes within one point."""
        t = mid_rate_tasks(n=1, shots=6 * SIM_BLOCK, seed=41)[0]
        serial = run_task(t)
        par = Campaign([t]).run(workers=4)
        assert par[0].counts == serial.counts

    def test_small_deep_point_reaches_every_worker(self, tmp_path):
        """A run is at most a fair share of its point's pending leases:
        the startup passes send a 6-lease point to all four workers
        before any of them replies."""
        t = mid_rate_tasks(n=1, shots=6 * SIM_BLOCK, seed=41)[0]
        with obs.session(telemetry=str(tmp_path / "t.jsonl"),
                         quiet=True) as monitor:
            Campaign([t]).run(workers=4)
        snaps = monitor._worker_snaps
        assert sorted(snaps) == [0, 1, 2, 3]
        assert all(snap["counters"].get("engine.blocks", 0) > 0
                   for snap in snaps.values())


#: One weighted point (tilted sampler: the weight moments are non-trivial
#: floats, so a fold-order slip shows), seeded the way a sweep seeds it.
ROUTE_SPEC = {"codes": [["repetition", [3, 1]]], "p_values": [0.05],
              "shots": 8192, "backend": "tableau", "sampler": "tilt:2",
              "root_seed": 31}
#: Stops this point at 3072 shots — three watermarks in.
ROUTE_POLICY = AdaptivePolicy(rel_halfwidth=0.08)


def _replay_prior(store, key, policy, task):
    """The prior a plan replays out of ``store`` for one point."""
    return TaskPlan(0, task, ZERO_PRIOR, 2 * SIM_BLOCK, policy,
                    banked=store.chunks_for(key)).prior()


def _run_route(route, task, policy, store):
    """One point through one route, resuming from ``store``."""
    if route == "run_task":
        return run_task(task, adaptive=policy, prior=_replay_prior(
            store, task_key(task), policy, task))
    if route == "dispatcher":
        dispatcher = Dispatcher(store)
        dispatcher.submit(ROUTE_SPEC)
        while leases := dispatcher.lease("test", max_leases=3):
            for lease in leases:
                done = execute_lease_wire(lease.to_wire())
                dispatcher.complete(done["lease"], done["chunks"])
        return store.result_for(task)
    workers = {"workers=1": 1, "workers=2": 2}[route]
    return Campaign([task]).run(workers=workers, adaptive=policy,
                                resume=store)[0]


class TestRouteEquivalence:
    """Every way a point can run banks its chunks through one TaskPlan:
    route x stopping rule x store state all land on one payload."""

    @pytest.mark.parametrize("banked", ["fresh", "partial", "hostile"])
    @pytest.mark.parametrize("route,mode", [
        (route, mode)
        for route in ("run_task", "workers=1", "workers=2", "dispatcher")
        for mode in ("fixed", "adaptive")
        # service jobs run their fixed budget
        if (route, mode) != ("dispatcher", "adaptive")])
    def test_payload_identical(self, route, mode, banked, tmp_path):
        task = build_sweep(ROUTE_SPEC)._seeded()[0]
        policy = ROUTE_POLICY if mode == "adaptive" else None
        want = run_task(task, adaptive=policy)
        assert want.shots == (3072 if policy else task.shots)
        store = CampaignStore(tmp_path / "store.jsonl")
        key = task_key(task)
        if banked == "partial":
            # killed mid-point: three 512-shot chunks, off the
            # watermark grid
            spans = [(0, 512), (512, 512), (1024, 512)]
        elif banked == "hostile":
            # a chunk straddling the 3072 watermark the policy stops
            # at, then a gap, then a chunk well past the stop
            spans = [(0, 1024), (1024, 1024), (2048, 1536), (4096, 512)]
        else:
            spans = []
        for start, shots in spans:
            store.append_chunk(key, execute_lease(task, start, shots)[0])
        got = _run_route(route, task, policy, store)
        assert got.payload == want.payload

    def test_recovery_policy_invariant_to_route(self):
        """A burst-recovery decoder estimates the strike from the block
        it is decoding, never from blocks seen earlier: counts do not
        move with chunk size or worker count."""
        task = InjectionTask(
            code=CodeSpec("xxzz", (3, 3)),
            fault=FaultSpec(kind="radiation", root_qubit=4,
                            strike_round=2, intensity=0.5),
            rounds=6, intrinsic_p=0.005, decoder="union-find",
            backend="frames", recovery="reweight", shots=1024, seed=11)
        want = run_task(task, chunk_shots=SIM_BLOCK).counts
        assert run_task(task, chunk_shots=2 * SIM_BLOCK).counts == want
        for workers in (1, 2):
            assert Campaign([task]).run(workers=workers)[0].counts == want

    @pytest.mark.parametrize("weighted", [False, True])
    def test_fixed_replay_equals_store_partial(self, weighted, tmp_path):
        """With no policy, plan replay and CampaignStore.partial read
        the same resumable prefix: both stop at a gap, at an overlap,
        and before a chunk ending off the block grid."""
        task = mid_rate_tasks(n=1, shots=8192, seed=3)[0]
        key = task_key(task)

        def chunk(start, shots):
            moments = tuple((float(n), n * 1.5, 0.25 * n, 0.125 * n)
                            for n in range(start, start + shots, 512)
                            ) if weighted else None
            return ChunkResult(start=start, shots=shots,
                               errors=start % 7 + 1, raw_errors=3,
                               corrections_applied=2, elapsed_s=0.5,
                               block_weights=moments)

        layouts = {
            "gap": [(0, 1024), (1024, 512), (2048, 512)],
            "overlap": [(0, 1024), (512, 1024), (1536, 512)],
            "partial-final-block": [(0, 1024), (1024, 300)],
        }
        for name, spans in layouts.items():
            store = CampaignStore(tmp_path / f"{name}-{weighted}.jsonl")
            for start, shots in spans:
                store.append_chunk(key, chunk(start, shots))
            plan = TaskPlan(0, task, ZERO_PRIOR, 2 * SIM_BLOCK, None,
                            banked=store.chunks_for(key))
            assert plan.prior() == store.partial(key), name
            assert plan.shots == {"gap": 1536, "overlap": 1024,
                                  "partial-final-block": 1024}[name]
            assert plan.pending[0].start == plan.shots


class TestWatermarkPolicy:
    def test_stop_shot_invariant_to_chunk_size(self):
        """Satellite fix: adaptive decisions happen at fixed shot
        watermarks, so chunking no longer moves the stop point."""
        t = mid_rate_tasks(n=1, shots=16384)[0]
        policy = AdaptivePolicy(rel_halfwidth=0.25)
        baseline = run_task(t, adaptive=policy)
        for chunk_shots in (SIM_BLOCK, 3 * SIM_BLOCK, 8 * SIM_BLOCK):
            r = run_task(t, chunk_shots=chunk_shots, adaptive=policy)
            assert r.shots == baseline.shots
            assert r.counts == baseline.counts

    def test_watermark_grid(self):
        policy = AdaptivePolicy(decision_shots=1000, max_shots=4608)
        assert policy.decision_step == 1024
        assert policy.next_watermark(0, 10_000) == 1024
        assert policy.next_watermark(1024, 10_000) == 2048
        assert policy.next_watermark(1500, 10_000) == 2048
        assert list(policy.watermarks(0, 10_000)) == [1024, 2048, 3072,
                                                      4096, 4608]

    def test_plan_record_order_independent(self):
        """TaskPlan aggregation is a pure function of the chunk set:
        arrival order never changes counts or the stop decision."""
        t = mid_rate_tasks(n=1, shots=8192)[0]
        policy = AdaptivePolicy(rel_halfwidth=0.25)
        chunks = {}
        for lease in plan_leases(0, 0, 8192, SIM_BLOCK, policy, t.shots):
            from repro.parallel.worker import execute_lease
            chunks[lease.start] = execute_lease(t, lease.start,
                                                lease.shots)[0]
        orders = [sorted(chunks), sorted(chunks, reverse=True),
                  sorted(chunks, key=lambda s: (s // 1024) % 3)]
        outcomes = []
        for order in orders:
            plan = TaskPlan(0, t, (0, 0, 0, 0, 0.0, 0), SIM_BLOCK,
                            policy)
            for start in order:
                plan.record(chunks[start])
            outcomes.append((plan.shots, plan.errors, plan.raw_errors,
                             plan.corrections, plan.stopped))
        assert len(set(outcomes)) == 1
        assert outcomes[0] == (run_task(t, adaptive=policy).shots,
                               *run_task(t, adaptive=policy).counts[1:],
                               True)

    def test_lease_planning_snaps_to_watermarks(self):
        policy = AdaptivePolicy(decision_shots=1024)
        leases = plan_leases(0, 0, 2560, 3 * SIM_BLOCK, policy, 2560)
        # 1536-shot chunks get clipped at the 1024/2048 watermarks
        assert [(lease.start, lease.shots) for lease in leases] == \
            [(0, 1024), (1024, 1024), (2048, 512)]


class TestLeaseQueue:
    def test_each_lessee_stays_on_its_plan(self):
        """A lessee keeps leasing the plan it leased last until that
        plan runs dry, so its per-point caches stay warm (a lone lessee
        drains the plans one after another); a fresh pick takes the
        deepest plan and moves it behind the plans as deep as it, so the
        next lessee starts another."""
        from repro.parallel.plan import LeaseQueue

        def queue():
            tasks = mid_rate_tasks(n=3, shots=16 * SIM_BLOCK)
            return LeaseQueue(TaskPlan(i, t, ZERO_PRIOR, SIM_BLOCK, None)
                              for i, t in enumerate(tasks))

        alone = queue()
        runs = [alone.lease(1, "a") for _ in range(6)]
        assert [(run.plan.index, run.start, run.run) for run in runs] \
            == [(i, start, 8) for i in range(3) for start in (0, 4096)]
        assert alone.lease(1, "a") is None
        shared = queue()
        assert [(lessee, shared.lease(2, lessee).plan.index)
                for lessee in "abab"] \
            == [("a", 0), ("b", 1), ("a", 0), ("b", 1)]


class TestShardedStore:
    def test_parallel_store_run_is_resumable(self, tmp_path):
        tasks = mid_rate_tasks(n=3, shots=1536)
        serial = Campaign(tasks, root_seed=5).run(workers=1)
        path = str(tmp_path / "store.jsonl")
        rs = Campaign(tasks, root_seed=5).run(
            workers=3, resume=CampaignStore(path))
        assert rs.counts() == serial.counts()
        assert os.listdir(tmp_path) == ["store.jsonl"]
        store = CampaignStore(path)
        assert len(store) == 3
        again = Campaign(tasks, root_seed=5).run(workers=3, resume=store)
        assert again.counts() == serial.counts()

    def test_serial_resume_reads_parallel_store(self, tmp_path):
        """A forked run writes the same store the in-process engine
        reads: switch worker counts freely mid-campaign."""
        tasks = mid_rate_tasks(n=4, shots=1536)
        path = str(tmp_path / "store.jsonl")
        Campaign(tasks[:2], root_seed=5).run(
            workers=2, resume=CampaignStore(path))
        resumed = Campaign(tasks, root_seed=5).run(
            workers=1, resume=CampaignStore(path))
        uninterrupted = Campaign(tasks, root_seed=5).run(workers=1)
        assert resumed.counts() == uninterrupted.counts()

    def test_stale_shards_absorbed_on_resume(self, tmp_path):
        """A ``.shard-N`` file left behind by an older version is
        folded in by hand with ``CampaignStore.merge``; its chunks are
        then reused, not resampled."""
        t = mid_rate_tasks(n=1, shots=1536)[0]
        seeded = Campaign([t], root_seed=5)._seeded()[0]
        path = str(tmp_path / "store.jsonl")
        leftover = path + ".shard-0"
        shard = CampaignStore(leftover)
        shard.append_chunk(task_key(seeded),
                           execute_lease(seeded, 0, SIM_BLOCK)[0])
        shard.close()
        CampaignStore.merge(path, [leftover])
        leases = obs.counter("scheduler.leases")
        before = leases.value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rs = Campaign([t], root_seed=5).run(workers=2, resume=path)
        # three 512-shot leases in the point, one of them banked
        assert leases.value - before == 2
        assert rs.counts() == [run_task(seeded).counts]
        # the run never looks for shards: the file is the operator's
        assert sorted(os.listdir(tmp_path)) == ["store.jsonl",
                                                "store.jsonl.shard-0"]

    def test_absorb_stale_shards_noop_without_shards(self, tmp_path):
        """A forked run, and an interrupted one, leave exactly one file
        behind: the store."""
        tasks = mid_rate_tasks(n=2, shots=4096, seed=5)
        for name in ("finished", "interrupted"):
            (tmp_path / name).mkdir()
        Campaign(tasks, root_seed=5).run(
            workers=2, resume=str(tmp_path / "finished" / "store.jsonl"))
        interrupted_run(Campaign(tasks, root_seed=5),
                        str(tmp_path / "interrupted" / "store.jsonl"))
        for name in ("finished", "interrupted"):
            assert os.listdir(tmp_path / name) == ["store.jsonl"]

    def test_resumes_store_written_by_previous_version(self, tmp_path):
        """The record format is unchanged: a store written at the
        parent commit (a finished point; a second interrupted after 7
        of its 8 chunks, shards absorbed) resumes here without
        resampling what it holds."""
        spec = {"codes": [["repetition", [3, 1]]],
                "p_values": [0.05, 0.06], "shots": 4096,
                "backend": "tableau", "sampler": "tilt:2",
                "root_seed": 31}
        path = tmp_path / "store.jsonl"
        with open(os.path.join(DATA, "store_written_by_pr18.jsonl"),
                  "rb") as fh:
            path.write_bytes(fh.read())
        shots = obs.counter("engine.shots").value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            resumed = build_sweep(spec).run(workers=1, resume=str(path))
        assert obs.counter("engine.shots").value - shots == SIM_BLOCK
        assert [r.payload for r in resumed] == \
            [r.payload for r in build_sweep(spec).run(workers=1)]

    def test_speculative_chunks_dont_move_adaptive_stop(self, tmp_path):
        """A store may hold chunks *past* the adaptive stop point (a
        fixed-budget or looser-policy run got further): resuming must
        replay the watermark decisions over the banked prefix and stop
        at the uninterrupted run's stop shot, not at the end of the
        banked data."""
        from repro.injection.store import task_key
        from repro.parallel.worker import execute_lease

        t = mid_rate_tasks(n=1, shots=16384, seed=23)[0]
        policy = AdaptivePolicy(rel_halfwidth=0.25)
        uninterrupted = run_task(t, adaptive=policy)
        assert uninterrupted.shots < t.shots   # it really stops early
        path = str(tmp_path / "store.jsonl")
        store = CampaignStore(path)
        key = task_key(t)
        # bank a 512-grain prefix one watermark PAST the true stop
        banked_end = uninterrupted.shots + 2 * SIM_BLOCK
        for start in range(0, banked_end, SIM_BLOCK):
            store.append_chunk(key, execute_lease(t, start, SIM_BLOCK)[0])
        store.close()
        for run_kwargs in ({"workers": 1}, {"workers": 2}):
            resumed = Campaign([t]).run(adaptive=policy,
                                        resume=CampaignStore(path),
                                        **run_kwargs)
            assert resumed[0].shots == uninterrupted.shots
            assert resumed[0].counts == uninterrupted.counts

    def test_off_grid_prior_resumes_to_watermark(self, tmp_path):
        """A checkpoint between watermarks (fine chunk grain) resumes
        sampling to the next watermark before any stop decision."""
        from repro.injection.store import task_key
        from repro.parallel.worker import execute_lease

        t = mid_rate_tasks(n=1, shots=16384, seed=31)[0]
        policy = AdaptivePolicy(rel_halfwidth=0.25)
        uninterrupted = run_task(t, adaptive=policy)
        path = str(tmp_path / "store.jsonl")
        store = CampaignStore(path)
        store.append_chunk(task_key(t), execute_lease(t, 0, SIM_BLOCK)[0])
        store.close()
        resumed = Campaign([t]).run(workers=1, adaptive=policy,
                                    resume=CampaignStore(path))
        assert resumed[0].shots == uninterrupted.shots
        assert resumed[0].counts == uninterrupted.counts


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                    reason="needs SIGKILL")
class TestCrashTolerance:
    def test_sigkilled_worker_requeued(self, monkeypatch):
        """SIGKILL one of two workers mid-campaign: the campaign
        completes with a requeue warning and unchanged counts."""
        monkeypatch.setenv(CRASH_WORKER_ENV, "0")
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        tasks = mid_rate_tasks(n=3, shots=1536)
        serial = Campaign(tasks, root_seed=7).run(workers=1)
        with pytest.warns(RuntimeWarning, match="died .* requeued"):
            crashed = Campaign(tasks, root_seed=7).run(workers=2)
        assert crashed.counts() == serial.counts()

    def test_all_workers_dead_finishes_inline(self, monkeypatch):
        """Even a total worker wipeout completes the campaign (inline
        in the scheduler process) rather than losing it."""
        monkeypatch.setenv(CRASH_WORKER_ENV, "0,1")
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        tasks = mid_rate_tasks(n=2, shots=1536)
        serial = Campaign(tasks, root_seed=9).run(workers=1)
        with pytest.warns(RuntimeWarning, match="in-process"):
            crashed = Campaign(tasks, root_seed=9).run(workers=2)
        assert crashed.counts() == serial.counts()

    @staticmethod
    def bad_task():
        """Two leases of a task rooted off the 6-qubit device (only a
        sweep spec checks the root against the device): every execution
        raises IndexError."""
        return InjectionTask(code=CodeSpec("repetition", (3, 1)),
                             fault=FaultSpec(kind="radiation",
                                             root_qubit=99, time_index=0),
                             rounds=4, intrinsic_p=0.05,
                             shots=2 * SIM_BLOCK, seed=3)

    def test_worker_exception_propagates(self):
        """A deterministic task failure surfaces as a campaign error,
        not an endless requeue loop."""
        with pytest.raises(RuntimeError, match="failed in a worker"):
            Campaign([self.bad_task()]).run(workers=2)

    def test_in_process_exception_propagates(self):
        """The same failure on the in-process route surfaces as itself
        instead of looping."""
        with pytest.raises(IndexError, match="index 99"):
            Campaign([self.bad_task()]).run(workers=1)

    def test_death_mid_send_cannot_hang(self):
        """A worker SIGKILLed half way through writing a reply costs
        that worker, never the campaign.  Run in a child process, so a
        hang fails here instead of wedging the suite."""
        spec = {"codes": [["repetition", [3, 1]]], "p_values": [0.05, 0.06],
                "shots": 4 * SIM_BLOCK, "backend": "tableau",
                "root_seed": 7}
        script = ("import json\n"
                  "from repro.injection import build_sweep\n"
                  f"print(json.dumps(build_sweep({spec!r}).run(workers=2)"
                  ".counts()))\n")
        env = dict(os.environ, **{CRASH_WORKER_ENV: "0",
                                  CRASH_AFTER_ENV: "1"})
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in sys.path if p] + [env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "parallel worker 0 died" in done.stderr
        serial = build_sweep(spec).run(workers=1).counts()
        assert json.loads(done.stdout) == json.loads(json.dumps(serial))


class TestSweepWorkersKey:
    def test_workers_key_parsed(self):
        campaign = build_sweep({"codes": [["repetition", [3, 1]]],
                                "workers": 2, "shots": 1024,
                                "p_values": [0.05]})
        assert campaign.workers == 2
        serial = build_sweep({"codes": [["repetition", [3, 1]]],
                              "shots": 1024, "p_values": [0.05]})
        assert serial.workers is None
        # the spec default drives Campaign.run's routing
        rs = campaign.run()
        assert rs.counts() == serial.run(workers=1).counts()

    def test_explicit_serial_overrides_spec_workers(self, monkeypatch):
        """workers=1 (the documented serial switch) must win over a
        spec's 'workers' default — no process fleet behind the caller's
        back."""
        import repro.parallel.scheduler

        def _boom(*args, **kwargs):
            raise AssertionError("no worker process may be started")

        monkeypatch.setattr(repro.parallel.scheduler, "_mp_context", _boom)
        campaign = build_sweep({"codes": [["repetition", [3, 1]]],
                                "workers": 8, "shots": 1024,
                                "p_values": [0.05]})
        rs = campaign.run(workers=1)
        assert rs[0].shots == 1024

    def test_single_lease_plan_never_forks(self, monkeypatch):
        """The fork decision is computed from the plan, not set by the
        caller: one planned lease runs in-process at any worker count."""
        import repro.parallel.scheduler

        def _boom(*args, **kwargs):
            raise AssertionError("no worker process may be started")

        monkeypatch.setattr(repro.parallel.scheduler, "_mp_context", _boom)
        t = mid_rate_tasks(n=1, shots=SIM_BLOCK, seed=17)[0]
        assert Campaign([t]).run(workers=8)[0].counts == run_task(t).counts

    def test_default_workers_resolution(self, monkeypatch):
        """Spec 'workers' key, then REPRO_WORKERS, then the CPU count."""
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        assert default_workers(5) == 5
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert default_workers() >= 1

    def test_malformed_repro_workers_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS='four'"):
            assert default_workers() == max(1, os.cpu_count() or 1)


class TestGracefulInterrupt:
    def test_interrupt_absorbs_shards_and_resumes_cleanly(self, tmp_path):
        """A KeyboardInterrupt mid-campaign requeues leases and emits
        an obs event; the chunks banked before it are already in the
        store, and the resume is warning-free and bit-identical to
        serial."""
        tasks = mid_rate_tasks(n=2, shots=4096, seed=5)
        serial = Campaign(tasks, root_seed=5).run(workers=1)
        store_path = str(tmp_path / "store.jsonl")
        interrupted_run(Campaign(tasks, root_seed=5), store_path, nth=3)
        assert os.listdir(tmp_path) == ["store.jsonl"]
        # each worker starts at the front of its own point, so the two
        # chunks banked before the interrupt were both folded
        assert len(chunk_records(store_path)) == 2
        assert obs.registry().snapshot()["events"] \
            .get("scheduler.interrupted", 0) >= 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resumed = Campaign(tasks, root_seed=5).run(
                workers=2, resume=store_path)
        stale = [w for w in caught
                 if issubclass(w.category, RuntimeWarning)]
        assert not stale, [str(w.message) for w in stale]
        assert resumed.counts() == serial.counts()

    @pytest.mark.slow
    def test_sigterm_unwinds_like_ctrl_c(self, tmp_path):
        """SIGTERM to a running parallel campaign unwinds like Ctrl+C:
        workers stopped, nothing but the store left on disk."""
        store_path = str(tmp_path / "store.jsonl")
        script = (
            "import sys\n"
            "from repro.injection import build_sweep\n"
            "spec = {'codes': [['xxzz', [5, 5]]],\n"
            "        'p_values': [0.005, 0.01, 0.02, 0.03],\n"
            # Minutes of work: the signal must land mid-campaign however
            # fast the decode gets (50 000 shots a point now finish
            # inside the 3 s below).
            "        'shots': 2000000, 'rounds': 3, 'root_seed': 3}\n"
            "print('READY', flush=True)\n"
            "try:\n"
            f"    build_sweep(spec).run(workers=2, resume={store_path!r})\n"
            "except KeyboardInterrupt:\n"
            "    sys.exit(130)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in sys.path if p] + [env.get("PYTHONPATH", "")])
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env,
                                text=True)
        assert proc.stdout.readline().strip() == "READY"
        time.sleep(3.0)  # let workers lease and bank some chunks
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 130, stderr
        assert "campaign interrupted" in stderr
        assert os.listdir(tmp_path) == ["store.jsonl"]


#: Two weighted points for the store-contract routes; ROUTE_POLICY stops
#: both well short of the budget.
CONTRACT_SPEC = dict(ROUTE_SPEC, p_values=[0.05, 0.06])


def assert_store_contract(store_path, results):
    """Per point, the chunk records tile ``[0, result.shots)`` exactly
    and sum to the done record; nothing else sits beside the store."""
    assert os.listdir(os.path.dirname(store_path)) == \
        [os.path.basename(store_path)]
    by_key = {}
    for rec in chunk_records(store_path):
        first = by_key.setdefault(rec["key"], {}).setdefault(
            rec["start"], rec)
        # a duplicate is a re-run of the same canonical blocks
        rec, first = dict(rec), dict(first)
        del rec["elapsed_s"], first["elapsed_s"]
        assert rec == first
    store = CampaignStore(store_path)
    assert len(results) == len(store.keys()) == len(by_key)
    for result in results:
        key = task_key(result.task)
        done = store.done_record(key)
        position = 0
        for start in sorted(by_key[key]):
            assert start == position
            position += by_key[key][start]["shots"]
        assert position == result.shots == done["shots"]
        for field, returned in (
                ("errors", result.errors),
                ("raw_errors", result.raw_errors),
                ("corrections", result.corrections_applied)):
            assert sum(rec[field] for rec in by_key[key].values()) \
                == done[field] == returned


class TestStoreContract:
    """One writer: whichever route ran a campaign, the store holds the
    canonical prefix of every point — once — and its done record."""

    @pytest.mark.parametrize("route", [
        "workers=1", "workers=2", "worker-crash", "interrupt-resume",
        "adaptive-workers=2", "service-runner-requeue"])
    def test_chunks_tile_the_result_and_sum_to_done(
            self, route, tmp_path, monkeypatch):
        store_path = str(tmp_path / "store.jsonl")
        campaign = build_sweep(CONTRACT_SPEC)
        if route == "workers=1":
            results = campaign.run(workers=1, resume=store_path)
        elif route == "workers=2":
            results = campaign.run(workers=2, resume=store_path)
        elif route == "worker-crash":
            monkeypatch.setenv(CRASH_WORKER_ENV, "0")
            monkeypatch.setenv(CRASH_AFTER_ENV, "2")
            with pytest.warns(RuntimeWarning, match="died .* requeued"):
                results = campaign.run(workers=2, resume=store_path)
        elif route == "interrupt-resume":
            interrupted_run(campaign, store_path, nth=5)
            results = campaign.run(workers=2, resume=store_path)
        elif route == "adaptive-workers=2":
            results = campaign.run(workers=2, resume=store_path,
                                   adaptive=ROUTE_POLICY)
            assert all(r.shots < r.task.shots for r in results)
        else:
            results = self.serve_with_requeue(store_path)
        assert_store_contract(store_path, list(results))

    @staticmethod
    def serve_with_requeue(store_path):
        """A dispatch-only head drained by a pull runner, after one
        lease was taken by a runner that never reports back."""
        from repro.service import CampaignService, ServiceClient
        from repro.service.runner import run_runner

        service = CampaignService(store_path, port=0, workers=0,
                                  slice_shots=SIM_BLOCK)
        service.start_background()
        try:
            client = ServiceClient(service.url)
            job = client.submit(CONTRACT_SPEC)["job"]
            assert client.lease(runner="crashy", ttl_s=0.01)
            run_runner(service.url, runner_id="healthy", poll_s=0.05,
                       idle_timeout_s=1.0)
            client.wait(job, timeout_s=30)
            crashes = client.metrics()["counters"][
                "service.runner_crashes"]
        finally:
            service.stop_background()
        assert crashes >= 1
        store = CampaignStore(store_path)
        return [store.result_for(task)
                for task in build_sweep(CONTRACT_SPEC)._seeded()]

    def test_chunks_complete_but_unmarked_point_is_served(self, tmp_path):
        """A head killed between a point's last chunk and its done
        record: the next submission finds the point complete (its plan
        writes the record) instead of waiting on it forever."""
        task = build_sweep(ROUTE_SPEC)._seeded()[0]
        store = CampaignStore(tmp_path / "store.jsonl")
        for start in range(0, task.shots, 2 * SIM_BLOCK):
            store.append_chunk(task_key(task),
                               execute_lease(task, start, 2 * SIM_BLOCK)[0])
        receipt = Dispatcher(store).submit(ROUTE_SPEC)
        assert (receipt["state"], receipt["cache_hits"]) == ("done", 1)
        assert store.result_for(task).payload == run_task(task).payload


def store_chunk_rows(path):
    """The chunk records of a store file minus their wall time."""
    return [{field: value for field, value in rec.items()
             if field != "elapsed_s"} for rec in chunk_records(path)]


def _span_point(**kw):
    base = dict(code=CodeSpec("xxzz", (3, 3)), rounds=4, intrinsic_p=0.01,
                backend="frames", shots=5 * SIM_BLOCK + 200, seed=17)
    base.update(kw)
    return InjectionTask(**base)


#: name -> (task, adaptive policy): every way a span's blocks reach the
#: counts — plain, stopped early, decoded block by block, weighted.
SPAN_POINTS = {
    "fixed": (_span_point(), None),
    "adaptive": (_span_point(shots=32 * SIM_BLOCK),
                 AdaptivePolicy(rel_halfwidth=0.05)),
    "first-watermark": (_span_point(intrinsic_p=0.05,
                                    shots=32 * SIM_BLOCK),
                        AdaptivePolicy(rel_halfwidth=0.9)),
    "reweight": (_span_point(
        fault=FaultSpec(kind="radiation", root_qubit=4, strike_round=2,
                        intensity=0.5),
        rounds=6, intrinsic_p=0.005, decoder="union-find",
        recovery="reweight"), None),
    "tilt": (_span_point(intrinsic_p=0.002, sampler=as_sampler("tilt:4")), None),
    "split": (_span_point(intrinsic_p=0.002, sampler=as_sampler("split")), None),
}


class TestSpanWidth:
    """``WIDE_BLOCKS`` is scheduling: result rows, adaptive stop shots
    and the store's chunk rows are the same whether the engine runs
    one block at a time or eight as one wide execution, at any worker
    count."""

    @staticmethod
    def run(name, width, workers, store_path, monkeypatch):
        from repro.injection import campaign as engine

        task, policy = SPAN_POINTS[name]
        monkeypatch.setattr(engine, "WIDE_BLOCKS", width)
        result = Campaign([task]).run(
            workers=workers, adaptive=policy, resume=store_path,
            chunk_shots=2 * SIM_BLOCK)[0]
        return result, result.to_row(), store_chunk_rows(store_path)

    @pytest.mark.parametrize("name", sorted(SPAN_POINTS))
    def test_rows_and_store_equal_at_any_width(self, name, tmp_path,
                                               monkeypatch):
        want, want_row, want_chunks = self.run(
            name, 1, 1, str(tmp_path / "w1-j1.jsonl"), monkeypatch)
        assert want_chunks and sum(c["shots"] for c in want_chunks) \
            == want.shots
        for width, workers in ((8, 1), (1, 2), (8, 2), (8, 3), (8, 4)):
            got, row, chunks = self.run(
                name, width, workers,
                str(tmp_path / f"w{width}-j{workers}.jsonl"), monkeypatch)
            assert got.payload == want.payload, (width, workers)
            assert row == want_row, (width, workers)
            assert chunks == want_chunks, (width, workers)
        task, policy = SPAN_POINTS[name]
        if name in ("tilt", "split"):
            assert all(len(c["weights"]) == -(-c["shots"] // SIM_BLOCK)
                       for c in want_chunks)
        if policy is not None:
            assert want.shots < task.shots

    def test_forked_workers_execute_runs(self, tmp_path):
        """Forked workers are handed runs of leases, not one lease per
        message: at one block per lease they sample fewer spans than
        blocks."""
        task, _ = SPAN_POINTS["fixed"]
        with obs.session(telemetry=str(tmp_path / "t.jsonl"),
                         quiet=True) as monitor:
            Campaign([task]).run(workers=2, chunk_shots=SIM_BLOCK)
        workers = obs.merge_snapshots({}, monitor._worker_snaps.values())
        assert workers["spans"]["sample"]["count"] \
            < workers["counters"]["engine.blocks"]

    def test_first_watermark_stop_pays_no_speculation(self, tmp_path,
                                                      monkeypatch):
        """A run never reaches further past the frontier than the
        frontier has come: a point that resolves at its first
        watermark sampled one lease, whatever the width."""
        sampled = obs.counter("engine.shots")
        before = sampled.value
        result, _, _ = self.run("first-watermark", 8, 1,
                                str(tmp_path / "s.jsonl"), monkeypatch)
        assert result.shots == 2 * SIM_BLOCK
        assert sampled.value - before == 2 * SIM_BLOCK

    def test_deep_adaptive_point_speculates_at_most_one_run(
            self, tmp_path, monkeypatch):
        sampled = obs.counter("engine.shots")
        before = sampled.value
        result, _, _ = self.run("adaptive", 8, 1,
                                str(tmp_path / "s.jsonl"), monkeypatch)
        assert result.shots > 8 * SIM_BLOCK
        assert 0 <= sampled.value - before - result.shots < 8 * SIM_BLOCK

    @pytest.mark.parametrize("first,then", [(8, 1), (1, 8)])
    @pytest.mark.parametrize("name", ["fixed", "adaptive", "tilt"])
    def test_store_written_at_one_width_resumes_at_the_other(
            self, name, first, then, tmp_path, monkeypatch):
        from repro.injection import campaign as engine

        task, _ = SPAN_POINTS[name]
        want, want_row, want_chunks = self.run(
            name, then, 1, str(tmp_path / "whole.jsonl"), monkeypatch)
        # The first three leases, executed as one run at the other width.
        monkeypatch.setattr(engine, "WIDE_BLOCKS", first)
        store = CampaignStore(tmp_path / "killed.jsonl")
        for chunk in execute_lease(task, 0, 2 * SIM_BLOCK, 3)[:2]:
            store.append_chunk(task_key(task), chunk)
        del store
        got, row, chunks = self.run(
            name, then, 1, str(tmp_path / "killed.jsonl"), monkeypatch)
        assert got.payload == want.payload
        assert chunks == want_chunks
        assert row == want_row


@pytest.mark.skipif(not hasattr(signal, "SIGKILL")
                    or not os.path.isdir("/proc/self"),
                    reason="needs SIGKILL and /proc")
class TestHardKill:
    """SIGKILL the scheduler process of a two-worker store campaign:
    no finally runs, nothing is absorbed, nobody tells the workers."""

    #: ~1.5 s of tableau blocks: still running when the kill lands.
    SPEC = {"codes": [["repetition", [3, 1]]], "p_values": [0.05, 0.06],
            "shots": 200 * SIM_BLOCK, "backend": "tableau",
            "root_seed": 5}
    #: Chunk records on disk before the kill is sent.
    BANKED_BEFORE_KILL = 16

    @pytest.fixture(scope="class")
    def killed(self, tmp_path_factory):
        """Store path and worker pids of a campaign killed mid-run."""
        workdir = tmp_path_factory.mktemp("hardkill")
        store_path = str(workdir / "store.jsonl")

        def chunks_on_disk():
            # in whatever files the run keeps beside its store
            return sum((workdir / name).read_bytes().count(
                b'"kind": "chunk"') for name in os.listdir(workdir))

        script = (
            "from repro.injection import build_sweep\n"
            f"build_sweep({self.SPEC!r}).run(workers=2, "
            f"resume={store_path!r})\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in sys.path if p] + [env.get("PYTHONPATH", "")])
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while proc.poll() is None and time.monotonic() < deadline \
                    and chunks_on_disk() < self.BANKED_BEFORE_KILL:
                time.sleep(0.01)
            workers = children(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        yield {"store": store_path, "workers": workers,
               "exit": proc.returncode}
        for pid in workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)

    def test_orphaned_workers_exit(self, killed):
        assert killed["exit"] == -signal.SIGKILL
        assert len(killed["workers"]) == 2
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline \
                and any(alive(pid) for pid in killed["workers"]):
            time.sleep(0.05)
        assert not [pid for pid in killed["workers"] if alive(pid)]

    def test_banked_chunks_survive_and_resume_is_exact(self, killed):
        assert killed["exit"] == -signal.SIGKILL
        assert os.listdir(os.path.dirname(killed["store"])) == \
            ["store.jsonl"]
        banked = chunk_records(killed["store"])
        assert len(banked) >= self.BANKED_BEFORE_KILL
        total = sum(t.shots for t in build_sweep(self.SPEC).tasks)
        shots = obs.counter("engine.shots").value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            resumed = build_sweep(self.SPEC).run(
                workers=1, resume=killed["store"])
        # everything the killed run wrote is a contiguous prefix of its
        # point, so none of it is sampled again
        assert obs.counter("engine.shots").value - shots == \
            total - sum(rec["shots"] for rec in banked)
        assert resumed.counts() == \
            build_sweep(self.SPEC).run(workers=1).counts()
        assert_store_contract(killed["store"], list(resumed))
