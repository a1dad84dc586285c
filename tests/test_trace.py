"""Fleet observability tests: trace-context propagation across
dispatch topologies, the `/metrics` scrape (golden + grammar),
streaming job progress, runner health, merged offline reports, and
the `repro fleet` aggregation — all under the engine's bit-identity
contract (tracing must never perturb counts)."""

import json
import re
import socket
import threading
import time

import pytest

from repro import obs
from repro.obs import trace
from repro.obs.metrics import merge_snapshots, render_prometheus
from repro.injection import CampaignStore, build_sweep
from repro.service import Dispatcher
from repro.service.dispatcher import execute_lease_wire

SPEC = {
    "codes": [["repetition", [3, 1]]],
    "p_values": [0.01, 0.02],
    "shots": 1024,
    "rounds": 2,
    "root_seed": 17,
}

#: Spans whose ids must be identical across dispatch topologies.
#: Phase children (compile/sample/decode/...) are registry *deltas* —
#: process-level caches (e.g. the compile lru_cache) legitimately make
#: them appear or not — but their ids, when present, are derived from
#: the same deterministic path.
STRUCTURAL = {"job", "point", "lease", "chunk"}


@pytest.fixture(autouse=True)
def clean_registry():
    obs.reset()
    trace.set_enabled(True)
    yield
    obs.reset()
    trace.set_enabled(True)


def make_dispatcher(tmp_path, name="store.jsonl", **kwargs):
    kwargs.setdefault("slice_shots", 512)
    tmp_path.mkdir(parents=True, exist_ok=True)
    return Dispatcher(CampaignStore(tmp_path / name), **kwargs)


def drain(dispatcher, runner="local-0", snapshot=False):
    """Synchronous pump that forwards spans (and, with ``snapshot``,
    this process's registry snapshot) exactly like the server pump /
    remote runner do."""
    while True:
        leases = dispatcher.lease(runner=runner, max_leases=8)
        if not leases:
            break
        for lease in leases:
            payload = execute_lease_wire(lease.to_wire())
            dispatcher.complete(payload["lease"], payload["chunks"],
                                runner=runner, key=payload["key"],
                                spans=payload.get("spans"),
                                obs_snapshot=obs.registry().snapshot()
                                if snapshot else None)


class TestTraceIds:
    def test_derive_id_is_deterministic_16_hex(self):
        a = trace.derive_id("job-1", "k1", "k2")
        assert a == trace.derive_id("job-1", "k1", "k2")
        assert re.fullmatch(r"[0-9a-f]{16}", a)
        assert a != trace.derive_id("job-1", "k1")

    def test_child_derivation_chains(self):
        root = trace.TraceContext("t" * 16, "s" * 16)
        lease = root.child("lease", 512)
        assert lease.trace_id == root.trace_id
        assert lease.parent_id == root.span_id
        assert lease == root.child("lease", 512)
        assert lease != root.child("lease", 1024)

    def test_wire_round_trip(self):
        ctx = trace.TraceContext("t" * 16, "a" * 16, "b" * 16)
        back = trace.from_wire(json.loads(json.dumps(ctx.to_wire())))
        assert back == ctx
        root = trace.TraceContext("t" * 16, "a" * 16)
        assert trace.from_wire(root.to_wire()) == root

    def test_from_wire_rejects_malformed(self):
        assert trace.from_wire(None) is None
        assert trace.from_wire("nope") is None
        assert trace.from_wire({}) is None
        assert trace.from_wire({"id": "t"}) is None


class TestSpanRecording:
    def test_span_records_with_parent_linkage(self):
        ctx = trace.TraceContext("t" * 16, "s" * 16)
        with trace.span(ctx, "lease", 0, here=True):
            pass
        (rec,) = trace.drain()
        assert rec["span"] == ctx.span_id
        assert rec["trace"] == ctx.trace_id
        assert rec["name"] == "lease"

    def test_phase_deltas_become_children(self):
        ctx = trace.TraceContext("t" * 16, "s" * 16)
        with trace.span(ctx, "lease", here=True, phases=True):
            with obs.span("decode"):
                pass
        spans = trace.drain()
        names = {s["name"]: s for s in spans}
        assert set(names) == {"lease", "decode"}
        assert names["decode"]["parent"] == ctx.span_id
        assert names["decode"]["span"] == ctx.child("decode").span_id

    def test_disabled_tracing_records_nothing(self):
        ctx = trace.TraceContext("t" * 16, "s" * 16)
        trace.set_enabled(False)
        with trace.span(ctx, "lease", here=True) as child:
            assert child is None
        assert trace.drain() == []

    def test_none_context_is_a_noop(self):
        with trace.span(None, "lease") as child:
            assert child is None
        assert trace.drain() == []

    def test_buffer_cap_drops_not_grows(self):
        buf = trace.TraceBuffer(max_spans=2)
        for i in range(5):
            buf.record({"span": str(i)})
        assert len(buf) == 2 and buf.dropped == 3


class TestTraceStore:
    def test_absorb_is_idempotent_by_span_id(self):
        store = trace.TraceStore()
        span = {"trace": "t1", "span": "s1", "name": "lease",
                "dur_s": 0.5}
        assert store.absorb([span]) == 1
        assert store.absorb([span, dict(span)]) == 0
        assert len(store.spans("t1")) == 1

    def test_spans_sorted_parents_first(self):
        store = trace.TraceStore()
        store.absorb([
            {"trace": "t", "span": "c", "parent": "b", "t0": 1.0},
            {"trace": "t", "span": "a", "parent": None, "t0": 3.0},
            {"trace": "t", "span": "b", "parent": "a", "t0": 2.0},
        ])
        assert [s["span"] for s in store.spans("t")] == ["a", "b", "c"]

    def test_cap_evicts_oldest_finished_trace_first(self):
        store = trace.TraceStore(max_spans=4)

        def spans(trace_id, *ids):
            return [{"trace": trace_id, "span": i} for i in ids]

        assert store.absorb(spans("t1", "a", "b")) == 2
        assert store.absorb(spans("t2", "c")) == 1
        assert store.absorb(spans("t3", "d")) == 1
        # Full and nothing finished: the arriving span is dropped.
        assert store.absorb(spans("t3", "e")) == 0
        store.finish("t2")
        store.finish("t1")
        # t1 is the oldest finished trace: it goes whole, first.
        assert store.absorb(spans("t3", "e", "f")) == 2
        assert store.evicted("t1") and not store.evicted("t2")
        assert store.spans("t1") == []
        assert store.absorb(spans("t1", "g")) == 0
        assert store.absorb(spans("t3", "h")) == 1
        assert store.evicted("t2")
        assert [s["span"] for s in store.spans("t3")] == ["d", "e", "f",
                                                          "h"]


class TestTopologyStability:
    def test_structural_span_ids_identical_across_topologies(
            self, tmp_path):
        """Local-pool-style and remote-runner-style drains of the same
        submission produce the same job/point/lease/chunk span ids —
        the trace is a function of the work, not of who ran it."""
        d1 = make_dispatcher(tmp_path / "a")
        d1.submit(SPEC)
        drain(d1, runner="local-0")
        t1 = d1.job_trace("job-1")

        d2 = make_dispatcher(tmp_path / "b")
        d2.submit(SPEC)
        drain(d2, runner="remote-host-4242", snapshot=True)
        t2 = d2.job_trace("job-1")

        assert t1["trace"] == t2["trace"]

        def structural(tr):
            return {(s["name"], s["span"], s["parent"])
                    for s in tr["spans"] if s["name"] in STRUCTURAL}

        assert structural(t1) == structural(t2)
        assert {s["name"] for s in t1["spans"]} >= STRUCTURAL
        # Every span's parent chain reaches the job root: one
        # causally-linked trace, no orphans.
        for tr in (t1, t2):
            by_id = {s["span"]: s for s in tr["spans"]}
            roots = [s for s in tr["spans"] if s["parent"] is None]
            assert [r["name"] for r in roots] == ["job"]
            for s in tr["spans"]:
                hops = 0
                while s["parent"] is not None:
                    s = by_id[s["parent"]]
                    hops += 1
                    assert hops < 10
                assert s["name"] == "job"

    def test_duplicate_completion_spans_collapse(self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        (lease,) = d.lease(runner="r1", max_leases=1)
        payload = execute_lease_wire(lease.to_wire())
        d.complete(payload["lease"], payload["chunks"], key=payload["key"],
                   spans=payload["spans"])
        n = len(d.job_trace("job-1")["spans"])
        # A crashed runner's late duplicate replays the same spans.
        d.complete(payload["lease"], payload["chunks"], key=payload["key"],
                   spans=payload["spans"])
        assert len(d.job_trace("job-1")["spans"]) == n

    def test_counts_bit_identical_with_tracing_off(self, tmp_path):
        d_on = make_dispatcher(tmp_path / "on")
        r_on = d_on.submit(SPEC)
        drain(d_on)
        rows_on = d_on.job_status(r_on["job"])["results"]
        assert d_on.job_trace(r_on["job"])["spans"]

        trace.set_enabled(False)
        try:
            d_off = make_dispatcher(tmp_path / "off")
            r_off = d_off.submit(SPEC)
            drain(d_off)
            rows_off = d_off.job_status(r_off["job"])["results"]
            assert d_off.job_trace(r_off["job"])["spans"] == []
        finally:
            trace.set_enabled(True)
        for a, b in zip(rows_on, rows_off):
            assert (a["shots"], a["errors"]) == (b["shots"], b["errors"])


class TestPrometheusRendering:
    def test_golden_output(self):
        snap = {
            "uptime_s": 1.5,
            "counters": {"engine.shots": 1024, "service.jobs": 2},
            "gauges": {"scheduler.pending_leases": 3.0},
            "spans": {"decode": {"total_s": 0.25, "count": 4}},
            "events": {"service.job_done": 1},
            "histograms": {
                "service.lease_run_s/runner=local-0": {
                    "bounds": [0.1, 1.0], "counts": [2, 1, 0],
                    "total": 3, "sum": 0.65}},
        }
        expected = """\
# HELP repro_uptime_seconds Seconds since the registry started.
# TYPE repro_uptime_seconds gauge
repro_uptime_seconds 1.5
# HELP repro_engine_shots_total Registry counter repro_engine_shots_total.
# TYPE repro_engine_shots_total counter
repro_engine_shots_total 1024
# HELP repro_service_jobs_total Registry counter repro_service_jobs_total.
# TYPE repro_service_jobs_total counter
repro_service_jobs_total 2
# HELP repro_scheduler_pending_leases Registry gauge repro_scheduler_pending_leases.
# TYPE repro_scheduler_pending_leases gauge
repro_scheduler_pending_leases 3.0
# HELP repro_phase_seconds_total Cumulative wall-clock per instrumented phase.
# TYPE repro_phase_seconds_total counter
repro_phase_seconds_total{phase="decode"} 0.25
# HELP repro_phase_runs_total Completions per instrumented phase.
# TYPE repro_phase_runs_total counter
repro_phase_runs_total{phase="decode"} 4
# HELP repro_events_total Structured obs events by kind.
# TYPE repro_events_total counter
repro_events_total{kind="service.job_done"} 1
# HELP repro_service_lease_run_s Registry histogram repro_service_lease_run_s.
# TYPE repro_service_lease_run_s histogram
repro_service_lease_run_s_bucket{le="0.1",runner="local-0"} 2
repro_service_lease_run_s_bucket{le="1.0",runner="local-0"} 3
repro_service_lease_run_s_bucket{le="+Inf",runner="local-0"} 3
repro_service_lease_run_s_sum{runner="local-0"} 0.65
repro_service_lease_run_s_count{runner="local-0"} 3
"""
        assert render_prometheus(snap) == expected

    # The Prometheus text-format grammar, reduced to line shapes.
    SAMPLE_RE = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*"'
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*")*\})?'
        r' (\+Inf|-Inf|NaN|[0-9eE.+-]+)$')

    def test_real_scrape_parses_under_grammar(self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        drain(d, runner="remote-1", snapshot=True)
        text = render_prometheus(d.metrics_snapshot())
        typed = {}
        current = None
        for line in text.splitlines():
            if line.startswith("# HELP "):
                current = line.split()[2]
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert name == current, "TYPE must follow its HELP"
                assert kind in ("counter", "gauge", "histogram",
                                "summary", "untyped")
                assert name not in typed, f"family {name} repeated"
                typed[name] = kind
                continue
            assert self.SAMPLE_RE.match(line), line
            metric = line.split("{")[0].split(" ")[0]
            base = re.sub(r"_(total|bucket|sum|count)$", "", metric)
            assert metric in typed or base in typed \
                or metric.rstrip("_total") in typed
        # The families the fleet view depends on are all present.
        for family in ("repro_engine_shots_total",
                       "repro_service_leases_total",
                       "repro_phase_seconds_total",
                       "repro_service_lease_run_s"):
            assert family in typed

    def test_per_runner_histograms_in_snapshot(self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        drain(d, runner="r-A")
        hists = d.metrics_snapshot().get("histograms", {})
        for kind in ("queue", "run", "latency"):
            row = hists[f"service.lease_{kind}_s/runner=r-A"]
            # one per lease: a lone runner's run is a whole point
            assert row["total"] == 2
            assert row["sum"] >= 0.0

    def test_merge_snapshots_sums_histograms(self):
        a = {"counters": {}, "histograms": {
            "h": {"bounds": [1.0], "counts": [1, 0], "total": 1,
                  "sum": 0.5}}}
        b = {"counters": {}, "histograms": {
            "h": {"bounds": [1.0], "counts": [0, 2], "total": 2,
                  "sum": 4.0},
            "only_b": {"bounds": [1.0], "counts": [1, 0], "total": 1,
                       "sum": 0.1}}}
        merged = merge_snapshots(a, [b])["histograms"]
        assert merged["h"] == {"bounds": [1.0], "counts": [1, 2],
                               "total": 3, "sum": 4.5}
        assert merged["only_b"]["total"] == 1


class TestRunnerHealth:
    def test_runner_lost_then_recovered(self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        t0 = time.monotonic()
        d.lease(runner="flaky", max_leases=1, ttl_s=5.0, now=t0)
        assert d.expire(now=t0 + 10.0) == 1
        health = d.runners["flaky"]
        assert health["lost"] and health["expired"] == 1
        events = obs.registry().event_counts
        assert events.get("service.runner_lost") == 1
        assert events.get("service.lease_expired") == 1
        # The slice went back to the queue; the runner coming back
        # clears the lost flag.
        d.lease(runner="flaky", max_leases=1, now=t0 + 11.0)
        assert not d.runners["flaky"]["lost"]
        assert obs.registry().event_counts.get(
            "service.runner_recovered") == 1

    def test_expiry_with_other_leases_outstanding_is_not_lost(
            self, tmp_path):
        d = make_dispatcher(tmp_path)
        d.submit(SPEC)
        t0 = time.monotonic()
        d.lease(runner="busy", max_leases=1, ttl_s=5.0, now=t0)
        d.lease(runner="busy", max_leases=1, ttl_s=100.0, now=t0)
        assert d.expire(now=t0 + 10.0) == 1
        assert not d.runners["busy"]["lost"]


class TestMergedReport:
    @staticmethod
    def _write_telemetry(path, shots, elapsed, final=True,
                         extra=None):
        rec = {
            "kind": "snapshot", "schema": obs.SCHEMA_VERSION,
            "uptime_s": elapsed, "elapsed_s": elapsed,
            "counters": {"engine.shots": shots},
            "gauges": {}, "events": {},
            "spans": {"decode": {"total_s": 0.5, "count": 7}},
            "progress": {"points_done": 1, "points_total": 1,
                         "shots_done": shots, "shots_target": shots},
        }
        rec.update(extra or {})
        if final:
            rec["final"] = True
        path.write_text(json.dumps(rec) + "\n")

    def test_two_files_merge_into_fleet_summary(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_telemetry(a, 1000, 10.0)
        self._write_telemetry(
            b, 2000, 4.0,
            extra={"runners": {"r1": {"leases": 3, "completed": 2,
                                      "failed": 0, "expired": 1,
                                      "lost": True}}})
        from repro.obs.report import render_report

        out = render_report([str(a), str(b)])
        assert "fleet of 2 file(s)" in out
        assert "3,000 aggregated" in out  # shots summed
        assert "10.0s" in out             # elapsed is max, not sum
        assert "x14" in out               # span counts summed
        assert "** LOST **" in out

    def test_partial_and_unusable_files_are_flagged(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl",
                                          "empty.jsonl"))
        self._write_telemetry(a, 100, 1.0)
        self._write_telemetry(b, 100, 1.0, final=False)
        c.write_text("")
        from repro.obs.report import render_report

        out = render_report([str(a), str(b), str(c)])
        assert "fleet of 2 file(s)" in out
        assert "(PARTIAL)" in out
        assert "skipped (no snapshot records)" in out

    def test_single_file_path_behaviour_unchanged(self, tmp_path):
        a = tmp_path / "a.jsonl"
        self._write_telemetry(a, 100, 1.0)
        from repro.obs.report import render_report

        assert render_report(str(a)).startswith(
            f"telemetry report — {a}")

    def test_report_cli_accepts_multiple_files(self, tmp_path, capsys):
        from repro.cli import main

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_telemetry(a, 500, 2.0)
        self._write_telemetry(b, 500, 2.0)
        assert main(["report", str(a), str(b)]) == 0
        assert "fleet of 2 file(s)" in capsys.readouterr().out


@pytest.mark.integration
class TestHTTPObservability:
    """Streaming, /metrics and traces over a real server."""

    @pytest.fixture()
    def service(self, tmp_path):
        from repro.service import CampaignService

        svc = CampaignService(str(tmp_path / "store.jsonl"), port=0,
                              workers=1, slice_shots=512)
        svc.start_background()
        yield svc
        svc.stop_background()

    def test_metrics_both_renderings(self, service):
        from repro.service import ServiceClient

        client = ServiceClient(service.url)
        client.submit(SPEC)
        client.wait("job-1", timeout_s=120)
        text = client.metrics_text()
        assert text.startswith("# HELP repro_uptime_seconds")
        assert "repro_engine_shots_total" in text
        snap = client.metrics()
        assert snap["counters"]["engine.shots"] >= 2048
        assert "service.lease_run_s/runner=local-0" \
            in snap.get("histograms", {})

    def test_streaming_wait_without_polling(self, service):
        from repro.service import ServiceClient

        client = ServiceClient(service.url)
        receipt = client.submit(SPEC)
        final = client.wait(receipt["job"], timeout_s=120, poll_s=0.05)
        assert final.get("final") is True  # streamed, not polled
        assert final["state"] == "done"
        assert len(final["results"]) == 2
        # Streaming a finished job yields exactly one final record.
        records = list(client.stream(receipt["job"]))
        assert len(records) == 1 and records[0]["final"] is True

    def test_final_record_leaves_at_completion(self, service):
        """The stream is woken by the job finishing: the final record
        does not wait for the next emit tick (here 30 s away), so a
        ``wait`` measures the job, not the interval it was asked at."""
        from repro.service import ServiceClient

        client = ServiceClient(service.url)
        receipt = client.submit(SPEC)
        t0 = time.monotonic()
        records = list(client.stream(receipt["job"], interval_s=30.0))
        assert time.monotonic() - t0 < 15.0
        assert records[-1]["final"] is True
        assert records[-1]["state"] == "done"
        assert len(records[-1]["results"]) == 2
        assert not service._job_done      # the waker is dropped

    def test_stream_unknown_job_reports_error(self, service):
        from repro.service import ServiceClient

        client = ServiceClient(service.url)
        (record,) = list(client.stream("job-404"))
        assert "error" in record and record["final"] is True

    def test_trace_endpoint_links_job_to_chunks(self, service):
        from repro.service import ServiceClient

        client = ServiceClient(service.url)
        receipt = client.submit(SPEC)
        client.wait(receipt["job"], timeout_s=120)
        tr = client.trace(receipt["job"])
        assert tr["trace"] == receipt["trace"]
        names = [s["name"] for s in tr["spans"]]
        assert names.count("job") == 1
        assert names.count("point") == 2
        # One lease and one chunk span per run; the lone slot's run is
        # a whole 2-slice point.
        assert names.count("lease") == 2
        assert names.count("chunk") == 2

    def test_stream_disconnect_leaves_service_healthy(self, tmp_path):
        """A client that hangs up mid-stream must not wedge the head
        (workers=0 keeps the job in flight, so the stream is
        genuinely open-ended when the socket drops)."""
        from repro.service import CampaignService, ServiceClient

        svc = CampaignService(str(tmp_path / "s0.jsonl"), port=0,
                              workers=0, slice_shots=512)
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            receipt = client.submit(SPEC)
            job = receipt["job"]
            with socket.create_connection(
                    (svc.host, svc.port), timeout=10) as sock:
                sock.sendall(
                    f"GET /jobs/{job}?stream=1&interval=0.05 "
                    f"HTTP/1.1\r\nHost: x\r\n\r\n".encode())
                buf = b""
                while (b"\r\n\r\n" not in buf
                       or buf.split(b"\r\n\r\n", 1)[1].count(b"\n") < 2):
                    buf += sock.recv(4096)
            # Socket closed mid-stream; the head must still serve.
            assert client.health()["ok"]
            assert client.status(job)["state"] == "running"
            # And multiple records were actually streamed.
            body = buf.split(b"\r\n\r\n", 1)[1]
            records = [json.loads(l) for l in body.splitlines() if l]
            assert len(records) >= 2
            assert all(r["state"] == "running" for r in records)
        finally:
            svc.stop_background()

    def test_status_watch_cli_non_tty_fallback(self, service, capsys):
        from repro.cli import main
        from repro.service import ServiceClient

        client = ServiceClient(service.url)
        receipt = client.submit(SPEC)
        client.wait(receipt["job"], timeout_s=120)
        assert main(["status", receipt["job"], "--url", service.url,
                     "--watch"]) == 0
        out = capsys.readouterr().out
        assert f"{receipt['job']}: done" in out  # final table printed


@pytest.mark.integration
class TestFleetAggregation:
    def test_two_heads_plus_remote_runner_one_fleet_report(
            self, tmp_path):
        """The acceptance topology: two dispatch heads, one of them
        fed only by a remote pull runner — one trace per job, both
        heads in one fleet report, counts bit-identical to a direct
        ``Campaign.run``."""
        from repro.service import CampaignService, ServiceClient
        from repro.service.fleet import fleet_overview, render_fleet
        from repro.service.runner import run_runner

        head_a = CampaignService(str(tmp_path / "a.jsonl"), port=0,
                                 workers=1, slice_shots=512)
        head_b = CampaignService(str(tmp_path / "b.jsonl"), port=0,
                                 workers=0, slice_shots=512)
        head_a.start_background()
        head_b.start_background()
        try:
            ca, cb = ServiceClient(head_a.url), ServiceClient(head_b.url)
            ra = ca.submit(SPEC)
            rb = cb.submit(SPEC)
            runner = threading.Thread(
                target=run_runner, args=(head_b.url,),
                kwargs={"runner_id": "remote-7", "poll_s": 0.05,
                        "idle_timeout_s": 2.0})
            runner.start()
            fa = ca.wait(ra["job"], timeout_s=120)
            fb = cb.wait(rb["job"], timeout_s=120)
            runner.join(timeout=30)

            # Same submission → same trace id on both heads; the
            # remote runner's spans landed on head B.
            assert ra["trace"] == rb["trace"]
            tb = cb.trace(rb["job"])
            assert {s["name"] for s in tb["spans"]} >= {
                "job", "point", "lease", "chunk"}

            direct = build_sweep(SPEC).run(workers=1)
            for status in (fa, fb):
                for row, res in zip(status["results"], direct):
                    assert (row["shots"], row["errors"]) == \
                        (res.shots, res.errors)

            overview = fleet_overview(
                [head_a.url, head_b.url, "http://127.0.0.1:9"],
                timeout_s=5.0)
            agg = overview["aggregate"]
            assert agg["heads_up"] == 2 and agg["heads_down"] == 1
            assert agg["shots"] >= 4096
            assert agg["runners"] >= 2  # local-0 and remote-7
            text = render_fleet(overview)
            assert "2/3 head(s) up" in text
            assert head_a.url in text and head_b.url in text
            assert "DOWN http://127.0.0.1:9" in text
            assert "slowest spans" in text
        finally:
            head_a.stop_background()
            head_b.stop_background()
