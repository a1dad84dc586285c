"""Tests for the campaign service: content-addressed cache hits,
request coalescing, slice dispatch, runner-crash requeue, and the
HTTP front end — all against the engine's bit-identity contract."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.injection import CampaignStore, build_sweep
from repro.injection.spec import task_from_dict
from repro.injection.store import canonical_task, task_key
from repro.service import Dispatcher, DispatchError, UnknownJobError
from repro.service.dispatcher import execute_lease_wire

from proctree import alive, children

SPEC = {
    "codes": [["repetition", [3, 1]]],
    "p_values": [0.01, 0.02],
    "shots": 1024,
    "rounds": 2,
    "root_seed": 17,
}


#: Two points of 16 slices of 512 shots each.
DEEP_SPEC = dict(SPEC, shots=8192)


def make_dispatcher(tmp_path, **kwargs):
    store = CampaignStore(tmp_path / "store.jsonl")
    kwargs.setdefault("slice_shots", 512)
    return Dispatcher(store, **kwargs)


def drain(dispatcher, runner="test"):
    """Synchronous local pump: lease, execute, complete, repeat."""
    while True:
        leases = dispatcher.lease(runner=runner, max_leases=8)
        if not leases:
            break
        for lease in leases:
            payload = execute_lease_wire(lease.to_wire())
            dispatcher.complete(payload["lease"], payload["chunks"],
                                key=payload["key"])


def engine_shots():
    return obs.counter("engine.shots").value


#: Specs whose every point would fail at execution.  Each is refused at
#: submit; accepted as fresh work, its slices would be requeued forever.
NEVER_RUNNABLE = [
    pytest.param(dict(SPEC, archs=["nope"]), id="unknown-arch"),
    pytest.param(dict(SPEC, rounds=0), id="zero-rounds"),
    pytest.param(dict(SPEC, p_values=[2.0]), id="p-above-one"),
    pytest.param(dict(SPEC, faults=[{"kind": "radiation", "root_qubit": 99,
                                     "time_index": 0}]),
                 id="root-off-device"),
    pytest.param(dict(SPEC, faults=[{"kind": "radiation", "root_qubit": 0,
                                     "strike_round": 7}]),
                 id="strike-past-rounds"),
    pytest.param(dict(SPEC, faults=[{"kind": "erasure", "qubits": [40]}]),
                 id="erasure-off-device"),
]


class TestTaskWireFormat:
    def test_round_trip_preserves_task_key(self):
        tasks = build_sweep(SPEC)._seeded()
        for task in tasks:
            wire = json.loads(json.dumps(canonical_task(task)))
            rebuilt = task_from_dict(wire)
            assert task_key(rebuilt) == task_key(task)
            assert rebuilt == task

    def test_round_trip_weighted_and_faulted(self):
        spec = dict(SPEC)
        spec["faults"] = [{"kind": "radiation", "root_qubit": 2,
                           "time_index": 0}]
        spec["sampler"] = {"kind": "tilt", "tilt": 4.0}
        for task in build_sweep(spec)._seeded():
            wire = json.loads(json.dumps(canonical_task(task)))
            assert task_key(task_from_dict(wire)) == task_key(task)

    def test_in_process_wire_returns_the_leased_task(self, tmp_path):
        """A lease executed where it was made skips the rebuild; one
        whose dict crossed a process boundary is rebuilt equal."""
        from repro.injection.store import task_from_wire

        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        (lease,) = d.lease(runner="local-0", max_leases=1)
        wire = lease.to_wire()
        # The memoised task (the first one seen equal to this lease's).
        known = task_from_wire(wire["key"], wire["task"])
        assert known == lease.task
        assert task_from_wire(wire["key"], wire["task"]) is known
        shipped = json.loads(json.dumps(wire))
        rebuilt = task_from_wire(shipped["key"], shipped["task"])
        assert rebuilt is not known and rebuilt == lease.task


class TestCacheAndCoalescing:
    def test_concurrent_identical_submissions_simulate_once(self, tmp_path):
        d = make_dispatcher(tmp_path)
        r1 = d.submit(SPEC)
        r2 = d.submit(SPEC)  # identical, while the first is in flight
        assert r1["fresh"] == 2 and r1["coalesced"] == 0
        assert r2["fresh"] == 0 and r2["coalesced"] == 2
        before = engine_shots()
        drain(d)
        # Exactly one simulation of the sweep: 2 points x 1024 shots.
        assert engine_shots() - before == 2048
        assert d.job_status(r1["job"])["state"] == "done"
        assert d.job_status(r2["job"])["state"] == "done"
        # Both jobs see the same store-backed rows.
        rows1 = d.job_status(r1["job"])["results"]
        rows2 = d.job_status(r2["job"])["results"]
        assert rows1 == rows2

    def test_resubmission_is_all_cache_hits_zero_shots(self, tmp_path):
        d = make_dispatcher(tmp_path)
        job = d.submit(SPEC)["job"]
        drain(d)
        first = d.job_status(job)["results"]
        before = engine_shots()
        receipt = d.submit(SPEC)
        assert receipt["state"] == "done"
        assert receipt["cache_hits"] == 2
        assert receipt["fresh"] == 0 and receipt["coalesced"] == 0
        assert engine_shots() == before, \
            "cache-served resubmission must not simulate"
        assert d.job_status(receipt["job"])["results"] == first

    def test_resubmissions_hold_no_task_copies_and_capped_spans(
            self, tmp_path):
        """A finished job keeps the head's task objects, not copies, and
        the span table stays under its cap by evicting the oldest
        finished trace: 20 cached resubmits of 24 points grow the head
        by a few KB each (they grew it by ~40 KB each with a task copy
        per point and every job's spans kept)."""
        import tracemalloc

        spec = dict(SPEC, p_values=[0.001 * (i + 1) for i in range(24)],
                    shots=512)
        d = make_dispatcher(tmp_path)
        first = d.submit(spec)
        for lease in d.lease(runner="r", max_leases=24):
            payload = execute_lease_wire(lease.to_wire())
            d.complete(payload["lease"], payload["chunks"],
                       key=payload["key"], spans=payload["spans"])
        assert d.job_status(first["job"])["state"] == "done"
        fresh_spans = len(d.job_trace(first["job"])["spans"])
        d.traces.max_spans = 64

        def resubmit():
            job = d.submit(spec)["job"]
            return job, d.job_status(job)["results"]

        for _ in range(4):
            resubmit()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            jobs = [resubmit() for _ in range(20)]
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(s.size_diff for s in after.compare_to(before,
                                                           "filename"))
        assert growth < 20 * 8192, f"{growth} B over 20 resubmits"
        rows = d.job_status(first["job"])["results"]
        assert all(results == rows for _, results in jobs)
        # One task object per key, shared by every job.
        assert all(a is b for job in list(d.jobs.values())[1:]
                   for a, b in zip(job.tasks, d.jobs[first["job"]].tasks))
        # The fresh job's trace went first; the newest is whole.
        assert fresh_spans > 64
        assert d.job_trace(first["job"]) == {
            "job": first["job"], "trace": first["trace"], "spans": [],
            "evicted": True}
        newest = d.job_trace(jobs[-1][0])
        assert "evicted" not in newest
        assert [s["name"] for s in newest["spans"]] == ["job"] + \
            ["point"] * 24

    def test_polling_reads_each_finished_point_once(self, tmp_path,
                                                   monkeypatch):
        """A finished point is immutable: however many jobs show it and
        however often they are polled, its done record is read from the
        store once, its rows built once, and ``results`` appear only
        with the final status."""
        d = make_dispatcher(tmp_path)
        reads = []
        result_for = d.store.result_for
        monkeypatch.setattr(
            d.store, "result_for",
            lambda task, key=None: reads.append(key) or result_for(task,
                                                                   key))
        job = d.submit(SPEC)["job"]
        keys = d.jobs[job].keys
        assert reads == keys                   # the cache check, by key
        # A lone lessee's run is the first point's two slices: it
        # finishes that point only.
        (lease,) = d.lease(runner="t", max_leases=1)
        assert (lease.key, lease.run) == (keys[0], 2)
        payload = execute_lease_wire(lease.to_wire())
        d.complete(payload["lease"], payload["chunks"], key=payload["key"])
        del reads[:]
        running = [d.job_status(job) for _ in range(5)]
        assert all("results" not in s and s["points_done"] == 1
                   for s in running)
        assert reads == keys[:1]
        drain(d)
        final = [d.job_status(job) for _ in range(3)]
        assert reads == keys
        assert final[0]["results"] == final[2]["results"]
        assert [r["key"] for r in final[0]["results"]] == keys
        assert final[0]["tasks"][0] == running[0]["tasks"][0]
        # a resubmit served from cache: the cache check, nothing else
        del reads[:]
        again = d.submit(SPEC)["job"]
        assert d.job_status(again, include_results=False)["state"] == "done"
        assert d.job_status(again)["results"] == final[0]["results"]
        assert reads == keys

    def test_swapped_out_store_reports_absent(self, tmp_path):
        d = make_dispatcher(tmp_path)
        job = d.submit(SPEC)["job"]
        drain(d)
        d.store = CampaignStore(tmp_path / "other.jsonl")
        status = d.job_status(job)
        assert [r["status"] for r in status["tasks"]] == ["absent"] * 2
        assert status["points_done"] == 0 and status["results"] == []

    def test_served_results_bit_identical_to_direct_run(self, tmp_path):
        d = make_dispatcher(tmp_path)
        job = d.submit(SPEC)["job"]
        drain(d)
        served = d.job_status(job)["results"]
        direct = build_sweep(SPEC).run(workers=1)
        assert len(served) == len(direct)
        for row, res in zip(served, direct):
            assert row["shots"] == res.shots
            assert row["errors"] == res.errors
            assert row["raw_ler"] == pytest.approx(res.raw_error_rate)

    def test_partial_point_progress_visible(self, tmp_path):
        """One completed run of a 16-slice point (8 slices: a run is
        at most ``WIDE_BLOCKS`` blocks) shows as live partial counts."""
        d = make_dispatcher(tmp_path)
        job = d.submit(DEEP_SPEC)["job"]
        leases = d.lease(runner="t", max_leases=1)
        payload = execute_lease_wire(leases[0].to_wire())
        d.complete(payload["lease"], payload["chunks"],
                   key=payload["key"])
        status = d.job_status(job)
        assert status["state"] == "running"
        running = [r for r in status["tasks"]
                   if r["status"] in ("running", "queued")]
        assert running and any(r["shots"] == 4096 for r in running)
        # lookup reports the in-flight partial too
        rows = d.lookup(spec=DEEP_SPEC)
        inflight = [r for r in rows if r["status"] == "in-flight"]
        assert inflight and inflight[0]["target"] == 8192
        drain(d)
        assert d.job_status(job)["state"] == "done"

    def test_partial_store_prefix_not_resimulated(self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(DEEP_SPEC)
        leases = d.lease(runner="t", max_leases=1)
        payload = execute_lease_wire(leases[0].to_wire())
        d.complete(payload["lease"], payload["chunks"],
                   key=payload["key"])
        # A new dispatcher over the same store banks the run's
        # 4096-shot prefix and only simulates the remainder.
        d2 = Dispatcher(d.store, slice_shots=512)
        d2.submit(DEEP_SPEC)
        before = engine_shots()
        drain(d2)
        assert engine_shots() - before == 2 * 8192 - 4096


class TestLeaseLifecycle:
    def test_expired_lease_requeues_and_completes(self, tmp_path):
        d = make_dispatcher(tmp_path, lease_ttl_s=30.0)
        job = d.submit(SPEC)["job"]
        crashes = obs.counter("service.runner_crashes").value
        # A runner leases one slice and crashes (never completes).
        lost = d.lease(runner="crashy", max_leases=1, now=1000.0)
        assert len(lost) == 1
        assert d.expire(now=1000.0 + 31.0) == 1
        assert obs.counter("service.runner_crashes").value == crashes + 1
        # The slice is back in the queue; a healthy drain finishes.
        drain(d)
        status = d.job_status(job)
        assert status["state"] == "done"
        direct = build_sweep(SPEC).run(workers=1)
        for row, res in zip(status["results"], direct):
            assert (row["shots"], row["errors"]) == (res.shots,
                                                     res.errors)

    def test_late_completion_after_expiry_is_idempotent(self, tmp_path):
        d = make_dispatcher(tmp_path, lease_ttl_s=30.0)
        d.submit(SPEC)
        lost = d.lease(runner="slow", max_leases=1, now=0.0)
        payload = execute_lease_wire(lost[0].to_wire())
        d.expire(now=100.0)
        drain(d)  # someone else re-ran the slice
        done_shots = d.store.key_stats(lost[0].key)["shots"]
        # The slow runner finally reports: accepted as a no-op.
        out = d.complete(payload["lease"], payload["chunks"],
                         key=payload["key"])
        assert out["ok"]
        assert out["accepted"] == 0
        assert d.store.key_stats(lost[0].key)["shots"] == done_shots

    def test_failed_lease_requeues(self, tmp_path):
        """A failed run gives every one of its slices back."""
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        pending_before = sum(len(p.pending) for p in d.points.values())
        lease = d.lease(runner="t", max_leases=1)[0]
        assert lease.run == 2
        out = d.fail(lease.lease_id, "simulated failure")
        assert out["requeued"]
        assert sum(len(p.pending) for p in d.points.values()) \
            == pending_before
        drain(d)
        assert not d.points

    def test_wire_lease_carries_canonical_task(self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        wire = d.lease(runner="t", max_leases=1)[0].to_wire()
        wire = json.loads(json.dumps(wire))  # HTTP round trip
        assert task_key(task_from_dict(wire["task"])) == wire["key"]
        assert wire["shots"] == 512


class TestLeaseRuns:
    """The head leases from the scheduler's queue: a lease is a run of
    slices — at most ``WIDE_BLOCKS`` blocks, at most a fair share of
    the point among the lessees the head can see."""

    def test_lone_runner_gets_a_wide_run(self, tmp_path):
        from repro.injection import campaign as engine

        d = make_dispatcher(tmp_path)
        d.submit(dict(DEEP_SPEC, p_values=[0.01]))
        (lease,) = d.lease(runner="alone", max_leases=1)
        wire = json.loads(json.dumps(lease.to_wire()))
        assert (wire["start"], wire["shots"], wire["run"]) \
            == (0, 512, engine.WIDE_BLOCKS)
        payload = execute_lease_wire(wire)
        assert [row["start"] for row in payload["chunks"]] \
            == list(range(0, 4096, 512))

    def test_two_lessees_get_at_most_a_fair_share(self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(dict(DEEP_SPEC, p_values=[0.01]))
        (point,) = d.points.values()
        d.lease(runner="a", max_leases=1)          # alone: a run of 8
        for runner in ("b", "a", "b", "a"):
            pending = len(point.pending)
            (lease,) = d.lease(runner=runner, max_leases=1)
            assert lease.run <= -(-pending // 2), (runner, pending)
        assert not point.pending

    def test_failed_and_expired_runs_requeue_front_first(self, tmp_path):
        d = make_dispatcher(tmp_path, lease_ttl_s=30.0)
        spec = dict(DEEP_SPEC, p_values=[0.01])
        job = d.submit(spec)["job"]
        (point,) = d.points.values()
        (first,) = d.lease(runner="a", max_leases=1, now=0.0)
        (second,) = d.lease(runner="b", max_leases=1, ttl_s=1.0, now=0.0)
        assert (first.start, first.run, second.start, second.run) \
            == (0, 8, 4096, 4)
        assert d.fail(first.lease_id)["requeued"]
        assert [piece.start for piece in point.pending] \
            == list(range(0, 4096, 512)) + list(range(6144, 8192, 512))
        # The later run comes back behind the earlier one, not ahead.
        assert d.expire(now=2.0) == 1
        assert [piece.start for piece in point.pending] \
            == list(range(0, 8192, 512))
        assert not point.leased
        drain(d)
        direct = build_sweep(spec).run(workers=1)
        assert [(row["shots"], row["errors"])
                for row in d.job_status(job)["results"]] \
            == [(res.shots, res.errors) for res in direct]

    def test_previous_heads_lease_leaves_this_heads_points_alone(
            self, tmp_path):
        """A runner that outlived a head restart completes a lease the
        old head issued.  The new head counts its leases afresh, but the
        id still names the old lease's point, so another point's lease
        and rows are untouched."""
        old = make_dispatcher(tmp_path)
        old.submit(SPEC)
        (stale,) = old.lease(runner="r", max_leases=1)
        payload = execute_lease_wire(stale.to_wire())
        new = make_dispatcher(tmp_path)
        job = new.submit(dict(SPEC, p_values=[0.02, 0.03]))["job"]
        (held,) = new.lease(runner="r", max_leases=1)
        assert held.key != stale.key
        assert held.lease_id.split("-")[0] == stale.lease_id.split("-")[0]
        out = new.complete(payload["lease"], payload["chunks"],
                           key=payload["key"])
        assert out["stale"] and out["accepted"] == 0
        assert held.lease_id in new._leases
        assert new.points[held.key].shots == 0
        assert not new.store.chunks_for(held.key)
        payload = execute_lease_wire(held.to_wire())
        new.complete(payload["lease"], payload["chunks"])
        drain(new)
        direct = build_sweep(dict(SPEC, p_values=[0.02, 0.03])).run(
            workers=1)
        assert [(row["shots"], row["errors"])
                for row in new.job_status(job)["results"]] \
            == [(res.shots, res.errors) for res in direct]


class TestDispatcherErrors:
    def test_bad_spec_raises_dispatch_error(self, tmp_path):
        d = make_dispatcher(tmp_path)
        with pytest.raises(DispatchError):
            d.submit({"codes": [["repetition", [3, 1]]], "pvals": [1]})

    @pytest.mark.parametrize("spec", NEVER_RUNNABLE)
    def test_never_runnable_spec_is_refused(self, tmp_path, spec):
        d = make_dispatcher(tmp_path)
        with pytest.raises(DispatchError, match="bad sweep spec"):
            d.submit(spec)
        assert not d.points and d.lease(runner="idle") == []

    def test_unknown_job(self, tmp_path):
        d = make_dispatcher(tmp_path)
        with pytest.raises(UnknownJobError):
            d.job_status("job-404")

    def test_unknown_lease_completion_is_stale_not_error(self, tmp_path):
        d = make_dispatcher(tmp_path)
        out = d.complete("L999-deadbeef", [])
        assert out["ok"] and out["stale"]

    def test_lookup_needs_spec_or_key(self, tmp_path):
        d = make_dispatcher(tmp_path)
        with pytest.raises(DispatchError):
            d.lookup()

    @pytest.mark.parametrize("kwargs", [
        {"max_leases": "abc"}, {"max_leases": "2"}, {"max_leases": 1.5},
        {"max_leases": True}, {"max_leases": 0}, {"max_leases": -3},
        {"ttl_s": "soon"}, {"ttl_s": 0}, {"ttl_s": -1.0},
        {"ttl_s": float("nan")}, {"ttl_s": float("inf")}, {"ttl_s": False},
    ])
    def test_bad_lease_arguments(self, tmp_path, kwargs):
        """A malformed lease request is rejected before it touches any
        state: no runner is registered and no slice leaves the queue."""
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        with pytest.raises(DispatchError, match="lease"):
            d.lease(runner="bad", **kwargs)
        assert "bad" not in d.runners
        assert d.lease(runner="good", max_leases=1, ttl_s=5)


#: ``/complete`` bodies the head must refuse (HTTP 400) before it
#: stores anything: a runner snapshot the metrics merge cannot fold, a
#: point key that is not a string, and a chunk row that is not one.
BAD_COMPLETIONS = [
    {"lease": "x", "runner": "r", "obs": {"counters": "oops"}},
    {"lease": "x", "runner": "r", "obs": "oops"},
    {"lease": "x", "runner": "r", "obs": {"counters": {"a": "1"}}},
    {"lease": "x", "runner": "r", "obs": {"gauges": {"a": [1, "b"]}}},
    {"lease": "x", "runner": "r",
     "obs": {"spans": {"sample": {"total_s": 1.0}}}},
    {"lease": "x", "runner": "r",
     "obs": {"histograms": {"h": {"bounds": [1.0], "counts": "1",
                                  "total": 1, "sum": 0.5}}}},
    {"lease": "x", "runner": "r", "obs": {"profile": {"kernels": {"k": 1}}}},
    {"lease": "x", "runner": "r", "obs": {"profile": ["oops"]}},
    {"lease": "x", "key": ["x"]},
    {"lease": "x", "chunks": [{"start": 0}]},
]


def post_completion(d, body, lease_id=None):
    return d.complete(lease_id or body["lease"], body.get("chunks", ()),
                      runner=body.get("runner"), key=body.get("key"),
                      obs_snapshot=body.get("obs"))


class TestMalformedCompletion:
    @pytest.mark.parametrize("body", BAD_COMPLETIONS)
    def test_rejected_before_any_state_changes(self, tmp_path, body):
        """Rejected on a live lease too: the lease stays outstanding
        (so it can still expire and requeue), no runner is registered
        and the merged metrics still render."""
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        lease = d.lease(runner="held", max_leases=1)[0]
        with pytest.raises(DispatchError):
            post_completion(d, body, lease.lease_id)
        assert lease.lease_id in d._leases
        assert "r" not in d.runners
        assert d.runners["held"]["completed"] == 0
        obs.render_prometheus(d.metrics_snapshot())

    def test_runner_snapshots_pass(self, tmp_path):
        """What a real runner ships (profiler section included) is
        accepted and merged."""
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        lease = d.lease(runner="remote", max_leases=1)[0]
        with obs.prof.profile():
            payload = execute_lease_wire(lease.to_wire())
            payload["obs"] = obs.registry().snapshot()
            payload["obs"]["profile"] = obs.prof.snapshot_active()
        assert payload["obs"]["profile"]["kernels"]
        out = d.complete(payload["lease"], payload["chunks"],
                         key=payload["key"], obs_snapshot=payload["obs"])
        assert out["accepted"] == lease.run == 2
        assert "remote" in d._runner_snaps
        assert "repro_kernel_seconds_total" in obs.render_prometheus(
            d.metrics_snapshot())


@pytest.mark.integration
class TestHTTPService:
    """End-to-end over a real asyncio HTTP server (ephemeral port)."""

    @pytest.fixture()
    def service(self, tmp_path):
        from repro.service import CampaignService

        svc = CampaignService(str(tmp_path / "store.jsonl"), port=0,
                              workers=1, slice_shots=512,
                              telemetry=str(tmp_path / "svc.jsonl"))
        svc.start_background()
        yield svc
        svc.stop_background()

    def test_submit_poll_resubmit_cache_hit(self, service):
        from repro.service import ServiceClient

        client = ServiceClient(service.url)
        assert client.health()["ok"]
        receipt = client.submit(SPEC)
        assert receipt["fresh"] == 2
        status = client.wait(receipt["job"], timeout_s=120)
        assert status["state"] == "done"
        assert status["shots_done"] == 2048
        first = status["results"]

        before = engine_shots()
        again = client.submit(SPEC)
        assert again["state"] == "done"
        assert again["cache_hits"] == 2 and again["fresh"] == 0
        assert engine_shots() == before
        assert client.status(again["job"])["results"] == first

        # bit-identity across the HTTP boundary
        direct = build_sweep(SPEC).run(workers=1)
        for row, res in zip(first, direct):
            assert (row["shots"], row["errors"]) == (res.shots,
                                                     res.errors)

        # lookup + overview endpoints
        rows = client.lookup(spec=SPEC)
        assert all(r["status"] == "done" for r in rows)
        overview = client.status()
        assert overview["store_done"] == 2
        assert client.store_stats()["done"] == 2

    def test_http_error_statuses(self, service):
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.status("job-404")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.submit({"codes": []})
        assert err.value.status == 400

    @pytest.mark.parametrize("spec", NEVER_RUNNABLE)
    def test_never_runnable_spec_is_400(self, service, spec):
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.submit(spec)
        assert err.value.status == 400
        assert "bad sweep spec" in str(err.value)
        assert client.status()["jobs"] == 0

    @pytest.mark.parametrize("body", [
        {"max": "abc"}, {"max": -3}, {"max": 0}, {"ttl_s": "soon"},
        {"ttl_s": -1}])
    def test_malformed_lease_body_is_400(self, service, body):
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/lease", body)
        assert err.value.status == 400
        assert "lease" in str(err.value)
        assert client._request("POST", "/lease", {"max": 2}) == {
            "leases": []}


    def test_wait_fails_when_the_head_stops_mid_stream(self, tmp_path):
        """A head with no workers never finishes the job; stopping it
        while ``wait`` follows the stream ends the stream without a
        final record, and ``wait`` names the job in its error."""
        import threading

        from repro.service import CampaignService, ServiceClient, \
            ServiceError

        svc = CampaignService(str(tmp_path / "store.jsonl"), port=0,
                              workers=0, slice_shots=512)
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            job = client.submit(SPEC)["job"]
            streaming = threading.Event()
            outcome = {}

            def follow():
                try:
                    outcome["status"] = client.wait(
                        job, timeout_s=60, poll_s=0.05,
                        on_progress=lambda status: streaming.set())
                except ServiceError as exc:
                    outcome["error"] = exc

            follower = threading.Thread(target=follow)
            follower.start()
            assert streaming.wait(30), "wait never received a snapshot"
        finally:
            svc.stop_background()
        follower.join(30)
        assert not follower.is_alive()
        assert "status" not in outcome
        assert job in str(outcome["error"])
        assert "closed before the job finished" in str(outcome["error"])

    def test_bad_completions_leave_metrics_and_expiry_working(
            self, tmp_path):
        """Each malformed ``/complete`` is a 400; afterwards ``/metrics``
        still answers and housekeeping (which writes telemetry from the
        same merge) still expires a short-TTL lease."""
        from repro.service import CampaignService, ServiceClient, \
            ServiceError

        svc = CampaignService(str(tmp_path / "store.jsonl"), port=0,
                              workers=0, slice_shots=512,
                              telemetry=str(tmp_path / "svc.jsonl"))
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            client.submit(SPEC)
            for body in BAD_COMPLETIONS:
                with pytest.raises(ServiceError) as err:
                    client._request("POST", "/complete", body)
                assert err.value.status == 400, body
            assert "counters" in client.metrics()
            assert client.lease(runner="short", ttl_s=0.2)
            deadline = time.monotonic() + 10.0
            while not client.status()["runners"]["short"]["expired"]:
                assert time.monotonic() < deadline, "lease never expired"
                time.sleep(0.05)
            assert "counters" in client.metrics()
        finally:
            svc.stop_background()


@pytest.mark.integration
class TestRemoteRunnerTopology:
    def test_pull_runner_completes_dispatch_only_service(self, tmp_path):
        """workers=0 head + a pull runner == the paper's two-host
        topology; counts must match a direct run exactly."""
        from repro.service import CampaignService, ServiceClient
        from repro.service.runner import run_runner

        svc = CampaignService(str(tmp_path / "store.jsonl"), port=0,
                              workers=0, slice_shots=512)
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            receipt = client.submit(SPEC)
            assert receipt["fresh"] == 2
            done = run_runner(svc.url, runner_id="test-runner",
                              poll_s=0.05, idle_timeout_s=2.0)
            assert done == 4  # 2 points x 2 slices
            status = client.wait(receipt["job"], timeout_s=30)
            direct = build_sweep(SPEC).run(workers=1)
            for row, res in zip(status["results"], direct):
                assert (row["shots"], row["errors"]) == (res.shots,
                                                         res.errors)
        finally:
            svc.stop_background()

    def test_pull_runner_banks_every_chunk_of_its_runs(self, tmp_path):
        """A lone runner is handed runs of 8 slices over HTTP, and the
        head banks each chunk of each run: the store tiles the point."""
        from repro.service import CampaignService, ServiceClient
        from repro.service.runner import run_runner

        spec = dict(DEEP_SPEC, p_values=[0.01])
        svc = CampaignService(str(tmp_path / "store.jsonl"), port=0,
                              workers=0, slice_shots=512)
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            job = client.submit(spec)["job"]
            done = run_runner(svc.url, runner_id="wide", poll_s=0.05,
                              idle_timeout_s=1.0)
            status = client.wait(job, timeout_s=30)
            health = client.status()["runners"]["wide"]
        finally:
            svc.stop_background()
        assert (done, health["leases"], health["completed"]) == (16, 2, 2)
        (task,) = build_sweep(spec)._seeded()
        chunks = CampaignStore(tmp_path / "store.jsonl").chunks_for(
            task_key(task))
        assert [chunk.start for chunk in chunks] \
            == list(range(0, 8192, 512))
        assert [(row["shots"], row["errors"])
                for row in status["results"]] \
            == [(res.shots, res.errors)
                for res in build_sweep(spec).run(workers=1)]


@pytest.mark.integration
class TestForkedPool:
    """``workers > 1`` gives each local slot a forked worker; a worker
    that dies costs its own slot one failed (requeued) slice and a
    fresh worker, never the job, another slot or a count."""

    #: 2 points x 256 slices: workers are still busy when one is killed
    #: (leases are runs of up to 8 slices, so 16 slices per point were
    #: done before the first poll could see a shot).
    SPEC = {"codes": [["xxzz", [3, 3]]], "p_values": [0.004, 0.008],
            "rounds": 3, "shots": 131072, "root_seed": 23}

    def run_job(self, tmp_path, kill):
        import multiprocessing
        import os
        import signal
        import time

        from repro.service import CampaignService, ServiceClient

        svc = CampaignService(str(tmp_path / "store.jsonl"), port=0,
                              workers=2, slice_shots=512)
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            job = client.submit(self.SPEC)["job"]
            if kill:
                deadline = time.monotonic() + 60
                while client.status(job)["shots_done"] == 0:
                    assert time.monotonic() < deadline, "no slice finished"
                    time.sleep(0.02)
                children = multiprocessing.active_children()
                assert len(children) == 2, "one worker per slot"
                os.kill(children[0].pid, signal.SIGKILL)
            status = client.wait(job, timeout_s=120)
        finally:
            svc.stop_background()
        assert status["state"] == "done"
        return status["results"]

    def assert_rows_match_campaign(self, rows):
        direct = build_sweep(self.SPEC).run(workers=1)
        assert [(row["shots"], row["errors"]) for row in rows] \
            == [(res.shots, res.errors) for res in direct]

    def test_rows_equal_campaign_run(self, tmp_path):
        self.assert_rows_match_campaign(self.run_job(tmp_path, kill=False))

    def test_killed_worker_fails_one_lease_and_is_replaced(self, tmp_path):
        replaced = obs.registry().event_counts.get(
            "service.worker_replaced", 0)
        failed = obs.counter("service.failed_leases").value
        rows = self.run_job(tmp_path, kill=True)
        self.assert_rows_match_campaign(rows)
        assert obs.counter("service.failed_leases").value == failed + 1
        assert obs.registry().event_counts.get(
            "service.worker_replaced", 0) == replaced + 1


@pytest.mark.skipif(not hasattr(signal, "SIGKILL")
                    or not os.path.isdir("/proc/self"),
                    reason="needs SIGKILL and /proc")
class TestHardKill:
    """SIGKILL a ``workers=2`` head with a job in flight: no finally
    runs and nobody tells its workers, which must exit on their own."""

    #: 2 points x 64 slices: still running when the kill lands.
    SPEC = {"codes": [["xxzz", [3, 3]]], "p_values": [0.004, 0.008],
            "rounds": 3, "shots": 32768, "root_seed": 23}

    def test_orphaned_workers_exit(self, tmp_path):
        script = (
            "import time\n"
            "from repro.service import CampaignService, ServiceClient\n"
            f"svc = CampaignService({str(tmp_path / 'store.jsonl')!r}, "
            "port=0, workers=2, slice_shots=512)\n"
            "client = ServiceClient(svc.start_background())\n"
            f"job = client.submit({self.SPEC!r})['job']\n"
            "while client.status(job)['shots_done'] == 0:\n"
            "    time.sleep(0.02)\n"
            "print('running', flush=True)\n"
            "time.sleep(600)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in sys.path if p] + [env.get("PYTHONPATH", "")])
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        workers = []
        try:
            assert proc.stdout.readline().strip() == "running"
            workers = children(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        try:
            assert proc.returncode == -signal.SIGKILL
            assert len(workers) == 2
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline \
                    and any(alive(pid) for pid in workers):
                time.sleep(0.05)
            assert not [pid for pid in workers if alive(pid)]
        finally:
            for pid in workers:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)


@pytest.mark.integration
class TestPumpWake:
    """An idle local pump waits on ``/submit``, not on a poll interval;
    ``PUMP_IDLE_S`` is left only as the timeout that picks up requeued
    work nothing announces."""

    SPEC = {"codes": [["repetition", [3, 1]]], "p_values": [0.01],
            "shots": 512, "rounds": 2, "root_seed": 3}

    def run_job(self, tmp_path):
        import time

        from repro.service import CampaignService, ServiceClient

        svc = CampaignService(str(tmp_path / "store.jsonl"), port=0,
                              workers=1, slice_shots=512)
        svc.start_background()
        try:
            time.sleep(0.3)  # the pump has found no work and is waiting
            client = ServiceClient(svc.url)
            t0 = time.perf_counter()
            status = client.wait(client.submit(self.SPEC)["job"],
                                 timeout_s=60)
            elapsed = time.perf_counter() - t0
        finally:
            svc.stop_background()
        assert status["state"] == "done"
        assert status["shots_done"] == 512
        return elapsed

    def test_submit_wakes_an_idle_pump(self, tmp_path, monkeypatch):
        from repro.service import server

        build_sweep(self.SPEC).run(workers=1)  # build kernels, caches
        monkeypatch.setattr(server, "PUMP_IDLE_S", 5.0)
        assert self.run_job(tmp_path) < 2.0

    def test_failed_lease_reruns_after_the_idle_timeout(self, tmp_path,
                                                        monkeypatch):
        """Nothing wakes the pump for a requeued slice: it runs again
        once the pump's ``PUMP_IDLE_S`` back-off has passed."""
        from repro.service import server

        calls = []
        execute = server._execute_slice

        def fail_once(wire):
            calls.append(wire["start"])
            if len(calls) == 1:
                raise RuntimeError("injected slice failure")
            return execute(wire)

        monkeypatch.setattr(server, "PUMP_IDLE_S", 0.5)
        monkeypatch.setattr(server, "_execute_slice", fail_once)
        failed = obs.counter("service.failed_leases").value
        assert self.run_job(tmp_path) >= 0.5
        assert calls == [0, 0]
        assert obs.counter("service.failed_leases").value == failed + 1


@pytest.mark.integration
class TestPipelinedSlot:
    """The in-process slot (``workers == 1``) keeps ``PIPELINE_DEPTH``
    leases in flight on its one executor thread: the counts, the store
    and the failure accounting are those of one lease at a time."""

    #: 8 points of one 2-slice run each: 8 leases.
    SPEC = {"codes": [["repetition", [3, 1]]],
            "p_values": [0.005 * (i + 1) for i in range(8)],
            "shots": 1024, "rounds": 2, "root_seed": 29}

    @staticmethod
    def store_lines(path):
        """Store records in file order, ``elapsed_s`` stripped."""
        with open(path) as fh:
            recs = [json.loads(line) for line in fh]
        for rec in recs:
            rec.pop("elapsed_s", None)
        return recs

    def serve(self, store):
        from repro.service import CampaignService, ServiceClient

        svc = CampaignService(str(store), port=0, workers=1,
                              slice_shots=512)
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            status = client.wait(client.submit(self.SPEC)["job"],
                                 timeout_s=120)
        finally:
            svc.stop_background()
        assert status["state"] == "done"
        return [(row["shots"], row["errors"]) for row in status["results"]]

    def direct(self, tmp_path):
        store = tmp_path / "direct.jsonl"
        results = build_sweep(self.SPEC).run(chunk_shots=512, workers=1,
                                             resume=str(store))
        return [(res.shots, res.errors) for res in results], store

    def test_rows_and_store_lines_equal_campaign_run(self, tmp_path):
        rows, direct_store = self.direct(tmp_path)
        assert self.serve(tmp_path / "served.jsonl") == rows
        served = self.store_lines(tmp_path / "served.jsonl")
        assert served == self.store_lines(direct_store)
        assert sum(rec["kind"] == "chunk" for rec in served) == 16

    def test_slot_holds_at_most_pipeline_depth_leases(self, tmp_path,
                                                      monkeypatch):
        from repro.parallel.scheduler import PIPELINE_DEPTH

        held = []
        lease = Dispatcher.lease

        def watched(self, **kwargs):
            out = lease(self, **kwargs)
            held.append(sum(1 for l in self._leases.values()
                            if l.runner == "local-0"))
            return out

        monkeypatch.setattr(Dispatcher, "lease", watched)
        rows, _ = self.direct(tmp_path)
        assert self.serve(tmp_path / "store.jsonl") == rows
        assert max(held) == PIPELINE_DEPTH == 2

    def test_failed_lease_fails_alone_while_another_is_queued(
            self, tmp_path, monkeypatch):
        from repro.service import server

        calls = []
        execute = server._execute_slice

        def fail_first(wire):
            calls.append((wire["key"], wire["start"]))
            if len(calls) == 1:
                raise RuntimeError("injected slice failure")
            return execute(wire)

        monkeypatch.setattr(server, "PUMP_IDLE_S", 0.05)
        monkeypatch.setattr(server, "_execute_slice", fail_first)
        failed = obs.counter("service.failed_leases").value
        rows, _ = self.direct(tmp_path)
        assert self.serve(tmp_path / "store.jsonl") == rows
        assert obs.counter("service.failed_leases").value == failed + 1
        # The queued lease ran once; the failed one ran again.
        assert len(calls) == 9 and len(set(calls)) == 8
        assert calls.count(calls[0]) == 2

    def test_stop_with_two_leases_in_flight_then_restart(self, tmp_path,
                                                         monkeypatch):
        import threading

        from repro.service import CampaignService, ServiceClient, server

        gate = threading.Event()
        started = []
        execute = server._execute_slice

        def gated(wire):
            started.append(wire["lease"])
            gate.wait(30)
            return execute(wire)

        monkeypatch.setattr(server, "_execute_slice", gated)
        store = tmp_path / "store.jsonl"
        svc = CampaignService(str(store), port=0, workers=1,
                              slice_shots=512)
        svc.start_background()
        try:
            ServiceClient(svc.url).submit(self.SPEC)
            deadline = time.monotonic() + 30
            while len(svc.dispatcher._leases) < 2:
                assert time.monotonic() < deadline, "no second lease"
                time.sleep(0.01)
            assert {l.runner for l in svc.dispatcher._leases.values()} \
                == {"local-0"}
        finally:
            # The executing run finishes while ``stop`` waits for it.
            threading.Timer(0.2, gate.set).start()
            svc.stop_background()
        # The queued run never started, and neither run was banked.
        assert len(started) == 1
        assert not store.exists() or not self.store_lines(store)
        rows, _ = self.direct(tmp_path)
        assert self.serve(store) == rows
