"""Tests for the multiprocess work-stealing campaign scheduler:
worker-count determinism, watermark-based adaptive stopping, sharded
store aggregation, and crash tolerance."""

import glob
import signal

import pytest

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
from repro.injection.campaign import _replay_prior
from repro.injection.results import ZERO_PRIOR, ChunkResult
from repro.injection.store import task_key
from repro.parallel import (TaskPlan, absorb_stale_shards, default_workers,
                            plan_leases)
from repro.parallel.worker import (CRASH_AFTER_ENV, CRASH_WORKER_ENV,
                                   execute_lease)
from repro.service.dispatcher import Dispatcher, execute_lease_wire


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


class TestWorkerCountDeterminism:
    """The subsystem's headline contract: counts and adaptive stop
    shots are bit-identical for workers=1|2|4."""

    @pytest.mark.parametrize("backend", ["frames", "tableau"])
    def test_fixed_budget_counts_identical(self, backend):
        campaign = d3_sweep_tasks(backend)
        serial = Campaign(campaign.tasks, root_seed=29).run(workers=1)
        for workers in (2, 4):
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

    def test_single_deep_task_splits_across_workers(self):
        """Block-level scheduling parallelizes within one point."""
        t = mid_rate_tasks(n=1, shots=6 * SIM_BLOCK, seed=41)[0]
        serial = run_task(t)
        par = Campaign([t]).run(workers=4)
        assert par[0].counts == serial.counts


#: One weighted point (tilted sampler: the weight moments are non-trivial
#: floats, so a fold-order slip shows), seeded the way a sweep seeds it.
ROUTE_SPEC = {"codes": [["repetition", [3, 1]]], "p_values": [0.05],
              "shots": 8192, "backend": "tableau", "sampler": "tilt:2",
              "root_seed": 31}
#: Stops this point at 3072 shots — three watermarks in.
ROUTE_POLICY = AdaptivePolicy(rel_halfwidth=0.08)


def _run_route(route, task, policy, store):
    """One point through one route, resuming from ``store``."""
    if route == "run_task":
        return run_task(task, adaptive=policy, prior=_replay_prior(
            store, task_key(task), policy, task))
    if route == "dispatcher":
        dispatcher = Dispatcher(store)
        dispatcher.submit(ROUTE_SPEC)
        while dispatcher.has_work():
            for lease in dispatcher.lease("test", max_leases=3):
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
            store.append_chunk(key, execute_lease(task, start, shots))
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
                                                lease.shots)
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


class TestShardedStore:
    def test_parallel_store_run_is_resumable(self, tmp_path):
        tasks = mid_rate_tasks(n=3, shots=1536)
        serial = Campaign(tasks, root_seed=5).run(workers=1)
        path = str(tmp_path / "store.jsonl")
        rs = Campaign(tasks, root_seed=5).run(
            workers=3, resume=CampaignStore(path))
        assert rs.counts() == serial.counts()
        # shards were merged into the main store and removed
        assert glob.glob(path + ".shard-*") == []
        store = CampaignStore(path)
        assert len(store) == 3
        again = Campaign(tasks, root_seed=5).run(workers=3, resume=store)
        assert again.counts() == serial.counts()

    def test_serial_resume_reads_parallel_store(self, tmp_path):
        """Worker-sharded writes merge into the same store format the
        serial engine reads: switch worker counts freely mid-campaign."""
        tasks = mid_rate_tasks(n=4, shots=1536)
        path = str(tmp_path / "store.jsonl")
        Campaign(tasks[:2], root_seed=5).run(
            workers=2, resume=CampaignStore(path))
        resumed = Campaign(tasks, root_seed=5).run(
            workers=1, resume=CampaignStore(path))
        uninterrupted = Campaign(tasks, root_seed=5).run(workers=1)
        assert resumed.counts() == uninterrupted.counts()

    def test_stale_shards_absorbed_on_resume(self, tmp_path):
        """Chunks stranded in a dead run's worker shard are folded in
        (not resampled) when the campaign is relaunched."""
        t = mid_rate_tasks(n=1, shots=1536)[0]
        seeded = Campaign([t], root_seed=5)._seeded()[0]
        path = str(tmp_path / "store.jsonl")
        from repro.injection.store import task_key
        from repro.parallel.worker import execute_lease, shard_path

        shard = CampaignStore(shard_path(path, 0))
        shard.append_chunk(task_key(seeded),
                           execute_lease(seeded, 0, SIM_BLOCK))
        shard.close()
        store = CampaignStore(path)
        with pytest.warns(RuntimeWarning, match="leftover worker"):
            rs = Campaign([t], root_seed=5).run(workers=2, resume=store)
        assert glob.glob(path + ".shard-*") == []
        assert rs.counts() == [run_task(seeded).counts]

    def test_absorb_stale_shards_noop_without_shards(self, tmp_path):
        store = CampaignStore(str(tmp_path / "store.jsonl"))
        assert absorb_stale_shards(store) is None

    def test_speculative_chunks_dont_move_adaptive_stop(self, tmp_path):
        """A store may hold chunks *past* the adaptive stop point (a
        crashed worker's speculative shard writes): resuming must
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
            store.append_chunk(key, execute_lease(t, start, SIM_BLOCK))
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
        store.append_chunk(task_key(t), execute_lease(t, 0, SIM_BLOCK))
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
        """Two leases of a task whose strike round is outside the
        experiment: every execution raises ValueError."""
        bad = InjectionTask(code=CodeSpec("repetition", (3, 1)),
                            fault=FaultSpec(kind="radiation",
                                            root_qubit=0, time_index=0,
                                            strike_round=1),
                            rounds=4, intrinsic_p=0.05,
                            shots=2 * SIM_BLOCK, seed=3)
        object.__setattr__(bad.fault, "strike_round", 10)  # > rounds
        return bad

    def test_worker_exception_propagates(self):
        """A deterministic task failure surfaces as a campaign error,
        not an endless requeue loop."""
        with pytest.raises(RuntimeError, match="failed in a worker"):
            Campaign([self.bad_task()]).run(workers=2)

    def test_in_process_exception_propagates(self):
        """The same failure on the in-process route surfaces as itself
        instead of looping."""
        with pytest.raises(ValueError, match="strike_round 10 outside"):
            Campaign([self.bad_task()]).run(workers=1)


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


class TestGracefulInterrupt:
    def test_interrupt_absorbs_shards_and_resumes_cleanly(
            self, tmp_path, monkeypatch):
        """A KeyboardInterrupt mid-campaign requeues leases, absorbs
        worker shards, and emits an obs event; the resume needs no
        stale-shard recovery and finishes bit-identical to serial."""
        import warnings

        from repro import obs
        from repro.parallel.scheduler import WorkStealingScheduler

        tasks = mid_rate_tasks(n=2, shots=4096, seed=5)
        serial = Campaign(tasks, root_seed=5).run(workers=1)
        store_path = str(tmp_path / "store.jsonl")

        original = WorkStealingScheduler._on_chunk
        seen = {"chunks": 0}

        def interrupting(self, *args, **kwargs):
            seen["chunks"] += 1
            if seen["chunks"] == 3:
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        monkeypatch.setattr(WorkStealingScheduler, "_on_chunk",
                            interrupting)
        with pytest.warns(RuntimeWarning, match="campaign interrupted"):
            with pytest.raises(KeyboardInterrupt):
                Campaign(tasks, root_seed=5).run(
                    workers=2, resume=store_path)
        monkeypatch.setattr(WorkStealingScheduler, "_on_chunk",
                            original)
        # shards were absorbed, not left for stale-shard recovery
        assert not glob.glob(store_path + ".shard-*")
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
        """SIGTERM to a running parallel campaign drains workers and
        absorbs shards instead of leaving them on disk."""
        import os
        import subprocess
        import sys
        import time

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
        assert not glob.glob(store_path + ".shard-*")
