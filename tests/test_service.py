"""Tests for the campaign service: content-addressed cache hits,
request coalescing, slice dispatch, runner-crash requeue, and the
HTTP front end — all against the engine's bit-identity contract."""

import json

import pytest

from repro import obs
from repro.injection import CampaignStore, build_sweep
from repro.injection.spec import task_from_dict
from repro.injection.store import canonical_task, task_key
from repro.service import Dispatcher, DispatchError, UnknownJobError
from repro.service.dispatcher import execute_lease_wire

SPEC = {
    "codes": [["repetition", [3, 1]]],
    "p_values": [0.01, 0.02],
    "shots": 1024,
    "rounds": 2,
    "root_seed": 17,
}


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
        lease = d.lease(runner="t", max_leases=2)[:2]
        for one in lease:                      # finish the first point only
            payload = execute_lease_wire(one.to_wire())
            d.complete(payload["lease"], payload["chunks"],
                       key=payload["key"])
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
        d = make_dispatcher(tmp_path)
        job = d.submit(SPEC)["job"]
        leases = d.lease(runner="t", max_leases=1)
        payload = execute_lease_wire(leases[0].to_wire())
        d.complete(payload["lease"], payload["chunks"],
                   key=payload["key"])
        status = d.job_status(job)
        assert status["state"] == "running"
        running = [r for r in status["tasks"]
                   if r["status"] in ("running", "queued")]
        assert running and any(r["shots"] == 512 for r in running)
        # lookup reports the in-flight partial too
        rows = d.lookup(spec=SPEC)
        inflight = [r for r in rows if r["status"] == "in-flight"]
        assert inflight and inflight[0]["target"] == 1024
        drain(d)
        assert d.job_status(job)["state"] == "done"

    def test_partial_store_prefix_not_resimulated(self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        leases = d.lease(runner="t", max_leases=1)
        payload = execute_lease_wire(leases[0].to_wire())
        d.complete(payload["lease"], payload["chunks"],
                   key=payload["key"])
        # A new dispatcher over the same store banks the 512-shot
        # prefix and only simulates the remainder.
        d2 = Dispatcher(d.store, slice_shots=512)
        d2.submit(SPEC)
        before = engine_shots()
        drain(d2)
        assert engine_shots() - before == 2 * 1024 - 512


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
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        lease = d.lease(runner="t", max_leases=1)[0]
        pending_after_lease = sum(len(p.pending)
                                  for p in d.points.values())
        out = d.fail(lease.lease_id, "simulated failure")
        assert out["requeued"]
        assert sum(len(p.pending) for p in d.points.values()) \
            == pending_after_lease + 1
        drain(d)
        assert not d.points

    def test_wire_lease_carries_canonical_task(self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        wire = d.lease(runner="t", max_leases=1)[0].to_wire()
        wire = json.loads(json.dumps(wire))  # HTTP round trip
        assert task_key(task_from_dict(wire["task"])) == wire["key"]
        assert wire["shots"] == 512


class TestDispatcherErrors:
    def test_bad_spec_raises_dispatch_error(self, tmp_path):
        d = make_dispatcher(tmp_path)
        with pytest.raises(DispatchError):
            d.submit({"codes": [["repetition", [3, 1]]], "pvals": [1]})

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


@pytest.mark.integration
class TestForkedPool:
    """``workers > 1`` runs slices in a forked process pool; a pool
    child that dies costs a fresh pool and a rerun slice, never the job
    or a count."""

    #: 2 points x 16 slices: children are still busy when one is killed.
    SPEC = {"codes": [["xxzz", [3, 3]]], "p_values": [0.004, 0.008],
            "rounds": 3, "shots": 8192, "root_seed": 23}

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
                assert children, "no pool child to kill"
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

    def test_killed_child_is_replaced_and_the_job_finishes(self, tmp_path):
        replaced = obs.registry().event_counts.get("service.pool_replaced",
                                                   0)
        rows = self.run_job(tmp_path, kill=True)
        self.assert_rows_match_campaign(rows)
        assert obs.registry().event_counts.get(
            "service.pool_replaced", 0) == replaced + 1
