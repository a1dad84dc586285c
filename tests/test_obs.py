"""Tests for the campaign telemetry layer (``repro.obs``): the metrics
registry, the ambient monitor session, JSONL telemetry export, the
engine's bit-identity contract with instrumentation live, and the
``repro report`` renderer."""

import json
import signal

import pytest

from repro import obs
from repro.injection import (
    AdaptivePolicy,
    Campaign,
    CodeSpec,
    InjectionTask,
    build_sweep,
)
from repro.obs.report import render_report
from repro.parallel.worker import CRASH_AFTER_ENV, CRASH_WORKER_ENV
from oracles.results import counts, payload


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts from a zeroed global registry and no ambient
    monitor, and leaves none behind."""
    obs.reset()
    yield
    obs.reset()


def d3_sweep(backend, shots=1536):
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


def rep_tasks(n=3, shots=1536, seed=0):
    return [InjectionTask(code=CodeSpec("repetition", (3, 1)),
                          intrinsic_p=0.05, shots=shots, seed=seed,
                          backend="tableau").with_tags(idx=i)
            for i in range(n)]


class TestRegistry:
    def test_counter_accumulates(self):
        c = obs.counter("t.counter")
        c.inc()
        c.inc(41)
        assert obs.registry().snapshot()["counters"]["t.counter"] == 42

    def test_counter_handle_is_shared(self):
        assert obs.counter("t.shared") is obs.counter("t.shared")

    def test_gauge_last_write_wins(self):
        g = obs.gauge("t.gauge")
        assert obs.registry().snapshot()["gauges"] == {}  # unset: omitted
        g.set(1.0)
        g.set(2.5)
        assert obs.registry().snapshot()["gauges"]["t.gauge"] == 2.5

    def test_reset_preserves_object_identity(self):
        """Module-level cached handles must survive reset — reset
        zeroes in place, never replaces the objects."""
        c = obs.counter("t.identity")
        c.inc(7)
        obs.registry().reset()
        assert c.value == 0
        assert obs.counter("t.identity") is c
        c.inc()
        assert obs.registry().snapshot()["counters"]["t.identity"] == 1

    def test_span_nesting(self):
        with obs.span("outer"):
            with obs.span("inner"):
                assert obs.registry()._stack == ["outer", "inner"]
        assert obs.registry()._stack == []
        snap = obs.registry().snapshot()["spans"]
        assert snap["outer"]["count"] == 1
        assert snap["inner"]["count"] == 1
        assert snap["outer"]["total_s"] >= snap["inner"]["total_s"]

    def test_span_unwinds_on_exception(self):
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        assert obs.registry()._stack == []
        assert obs.registry().snapshot()["spans"]["doomed"]["count"] == 1

    def test_events_count_and_buffer(self):
        for i in range(3):
            obs.event("t.kind")
        reg = obs.registry()
        assert reg.snapshot()["events"]["t.kind"] == 3

    def test_snapshot_json_roundtrip(self):
        obs.counter("t.c").inc(5)
        obs.gauge("t.g").set(0.25)
        with obs.span("t.s"):
            pass
        obs.event("t.e")
        snap = obs.registry().snapshot()
        back = json.loads(json.dumps(snap))
        assert back == snap
        assert back["counters"]["t.c"] == 5
        assert back["spans"]["t.s"]["count"] == 1
        assert back["events"]["t.e"] == 1

    def test_merge_snapshots_sums(self):
        base = {"counters": {"a": 1, "b": 2},
                "gauges": {"g": 1.0},
                "spans": {"s": {"total_s": 1.0, "count": 2}},
                "events": {"e": 1}}
        other = {"counters": {"a": 10, "c": 3},
                 "gauges": {"g": 9.0, "h": 4.0},
                 "spans": {"s": {"total_s": 0.5, "count": 1},
                           "t": {"total_s": 2.0, "count": 4}},
                 "events": {"e": 2, "f": 1}}
        merged = obs.merge_snapshots(base, [other, None, {}])
        assert merged["counters"] == {"a": 11, "b": 2, "c": 3}
        # Base gauges win; worker gauges only fill gaps.
        assert merged["gauges"] == {"g": 1.0, "h": 4.0}
        assert merged["spans"]["s"] == {"total_s": 1.5, "count": 3}
        assert merged["spans"]["t"]["count"] == 4
        assert merged["events"] == {"e": 3, "f": 1}


class TestMergeEdgeCases:
    """merge_snapshots against the snapshots real fleets produce:
    older runners missing sections, histogram bounds that drifted
    across versions, and label-encoded names that collide once
    sanitized for Prometheus."""

    def test_mismatched_histogram_bounds_fold_totals_only(self):
        base = {"histograms": {"h": {"bounds": [1.0, 2.0],
                                     "counts": [1, 2, 3],
                                     "total": 6, "sum": 9.0}}}
        other = {"histograms": {"h": {"bounds": [5.0, 10.0],
                                      "counts": [4, 4, 4],
                                      "total": 12, "sum": 80.0}}}
        merged = obs.merge_snapshots(base, [other])
        h = merged["histograms"]["h"]
        # Base buckets survive unchanged — summing counts across
        # different bucket edges would fabricate a distribution —
        # while the bound-free total/sum still aggregate.
        assert h["bounds"] == [1.0, 2.0]
        assert h["counts"] == [1, 2, 3]
        assert h["total"] == 18
        assert h["sum"] == 89.0

    def test_histogram_only_in_other_is_adopted(self):
        other = {"histograms": {"h": {"bounds": [1.0], "counts": [2, 1],
                                      "total": 3, "sum": 2.5}}}
        merged = obs.merge_snapshots({}, [other])
        assert merged["histograms"]["h"]["total"] == 3

    def test_missing_sections_tolerated(self):
        """A schema-1-era runner snapshot without histograms/events
        keys (or with nothing at all) merges cleanly."""
        base = {"counters": {"a": 1},
                "histograms": {"h": {"bounds": [1.0], "counts": [1, 0],
                                     "total": 1, "sum": 0.5}}}
        bare = {"counters": {"a": 2}}  # no events/histograms/spans
        merged = obs.merge_snapshots(base, [bare, {}, None])
        assert merged["counters"] == {"a": 3}
        assert merged["events"] == {}
        assert merged["histograms"]["h"]["total"] == 1
        # And the other direction: a base without sections absorbs.
        merged = obs.merge_snapshots({}, [base])
        assert merged["counters"] == {"a": 1}

    def test_span_child_s_merges_with_legacy_rows(self):
        base = {"spans": {"s": {"total_s": 1.0, "count": 1,
                                "child_s": 0.25}}}
        legacy = {"spans": {"s": {"total_s": 2.0, "count": 3}}}
        merged = obs.merge_snapshots(base, [legacy])
        assert merged["spans"]["s"] == {"total_s": 3.0, "count": 4,
                                        "child_s": 0.25}

    def test_prom_name_collisions_stay_one_family(self):
        """`service.x` and `service/x` both sanitize to
        `repro_service_x`; the rendering must emit one TYPE header
        with both samples, not a duplicated family."""
        snap = {"counters": {"service.x/runner=a": 1,
                             "service x/runner=b": 2}}
        text = obs.render_prometheus(snap)
        assert text.count("# TYPE repro_service_x_total counter") == 1
        assert 'repro_service_x_total{runner="a"} 1' in text
        assert 'repro_service_x_total{runner="b"} 2' in text

    def test_profile_sections_sum(self):
        base = {"profile": {"kernels": {"cx": {"total_s": 1.0,
                                               "calls": 2, "ops": 4}},
                            "stages": {"decode.dedup":
                                       {"total_s": 0.5, "calls": 1}},
                            "paths": {"sample": {"total_s": 2.0,
                                                 "count": 1,
                                                 "self_s": 1.0}}}}
        other = {"profile": {"kernels": {"cx": {"total_s": 0.5,
                                                "calls": 1, "ops": 2},
                                         "h": {"total_s": 0.1,
                                               "calls": 1, "ops": 1}},
                             "stages": {},
                             "paths": {"sample": {"total_s": 1.0,
                                                  "count": 1,
                                                  "self_s": 0.5}}}}
        merged = obs.merge_snapshots(base, [other, {"counters": {}}])
        prof = merged["profile"]
        assert prof["kernels"]["cx"] == {"total_s": 1.5, "calls": 3,
                                         "ops": 6}
        assert prof["kernels"]["h"]["calls"] == 1
        assert prof["stages"]["decode.dedup"]["calls"] == 1
        assert prof["paths"]["sample"] == {"total_s": 3.0, "count": 2,
                                           "self_s": 1.5}
        # No profile anywhere -> no profile key materialises.
        assert "profile" not in obs.merge_snapshots(
            {"counters": {}}, [{"counters": {}}])


class TestSession:
    def test_no_sinks_installs_nothing(self):
        with obs.session(telemetry=None, quiet=True) as mon:
            assert mon is None
            assert obs.active() is None

    def test_session_installs_and_uninstalls(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.session(telemetry=path, quiet=True) as mon:
            assert obs.active() is mon
        assert obs.active() is None

    def test_session_uninstalls_on_exception(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            with obs.session(telemetry=path, quiet=True):
                raise RuntimeError("boom")
        assert obs.active() is None

    def test_jsonl_schema_and_sequencing(self, tmp_path):
        """Exported records: a start record first, a final snapshot
        last, every record schema-stamped with increasing seq."""
        path = str(tmp_path / "t.jsonl")
        with obs.session(telemetry=path, quiet=True):
            Campaign(rep_tasks(n=1, shots=512)).run(workers=1)
        records = [json.loads(line)
                   for line in open(path, encoding="utf-8")]
        assert records[0]["kind"] == "start"
        assert records[-1]["kind"] == "snapshot"
        assert records[-1]["final"] is True
        assert all(r["schema"] == obs.SCHEMA_VERSION for r in records)
        assert [r["seq"] for r in records] == list(range(len(records)))
        snap = records[-1]
        assert snap["counters"]["engine.shots"] == 512
        assert snap["progress"]["points_done"] == 1
        assert snap["tasks"][0]["shots"] == 512

    def test_snapshot_covers_subsystem_metrics(self, tmp_path):
        """A parallel frames campaign's final snapshot reports engine,
        scheduler, decode-cache and phase-span metrics (the acceptance
        criterion's coverage list)."""
        path = str(tmp_path / "t.jsonl")
        campaign = d3_sweep("frames")
        with obs.session(telemetry=path, quiet=True):
            Campaign(campaign.tasks, root_seed=29).run(workers=2)
        snap = obs.last_snapshot(obs.load_telemetry(path))
        counters = snap["counters"]
        assert counters["engine.shots"] == 4 * 1536
        assert counters["scheduler.leases"] > 0
        assert counters["decode.patterns"] > 0
        assert counters["decode.cache_hits"] > 0
        assert counters["frames.blocks"] > 0
        # Depolarize rows drawn and fired are counted facts.
        assert 0 < counters["frames.depolarize_hits"] \
            < counters["frames.depolarize_sites"] * 512
        for phase in ("sample", "decode", "aggregate"):
            assert snap["spans"][phase]["count"] > 0
        assert snap["workers"]
        assert snap["progress"]["points_done"] == 4


@pytest.mark.parametrize("backend", ["frames", "tableau"])
class TestBitIdentity:
    """The hard contract: telemetry on vs off changes nothing about
    counts or adaptive stop shots, at any worker count."""

    def test_counts_identical_any_workers(self, backend, tmp_path):
        campaign = d3_sweep(backend)
        baseline = Campaign(campaign.tasks, root_seed=29).run(
            workers=1)
        for workers in (1, 2, 4):
            path = str(tmp_path / f"t{workers}.jsonl")
            with obs.session(telemetry=path, quiet=True):
                monitored = Campaign(campaign.tasks, root_seed=29).run(
                    workers=workers)
            assert counts(monitored) == counts(baseline)
            assert payload(monitored) == payload(baseline)

    def test_adaptive_stop_shots_identical(self, backend, tmp_path):
        campaign = d3_sweep(backend, shots=8192)
        policy = AdaptivePolicy(rel_halfwidth=0.3, min_shots=512)
        baseline = Campaign(campaign.tasks, root_seed=29).run(
            workers=1, adaptive=policy)
        path = str(tmp_path / "t.jsonl")
        with obs.session(telemetry=path, quiet=True):
            monitored = Campaign(campaign.tasks, root_seed=29).run(
                workers=2, adaptive=policy)
        assert [r.shots for r in monitored] == [r.shots for r in baseline]
        assert counts(monitored) == counts(baseline)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                    reason="needs SIGKILL")
class TestCrashTelemetry:
    def test_worker_crash_with_telemetry(self, monkeypatch, tmp_path):
        """SIGKILL a worker with telemetry live: counts unchanged, the
        crash lands in the event log, and the span stack unwinds."""
        monkeypatch.setenv(CRASH_WORKER_ENV, "0")
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        tasks = rep_tasks(n=3, shots=1536, seed=7)
        serial = Campaign(tasks, root_seed=7).run(workers=1)
        path = str(tmp_path / "t.jsonl")
        with obs.session(telemetry=path, quiet=True):
            with pytest.warns(RuntimeWarning, match="died .* requeued"):
                crashed = Campaign(tasks, root_seed=7).run(workers=2)
        assert counts(crashed) == counts(serial)
        assert obs.registry()._stack == []
        snap = obs.last_snapshot(obs.load_telemetry(path))
        assert snap["final"] is True
        assert snap["events"]["scheduler.worker_crash"] == 1
        assert snap["counters"]["scheduler.worker_crashes"] == 1
        assert snap["counters"]["scheduler.requeued_leases"] >= 1
        assert snap["counters"]["engine.shots"] >= 3 * 1536


class TestReport:
    GOLDEN = [
        {"schema": 2, "seq": 0, "time": 0.0, "kind": "start", "pid": 1},
        {"schema": 2, "seq": 1, "time": 12.5, "kind": "snapshot",
         "elapsed_s": 12.5, "final": True,
         "counters": {"engine.shots": 4096, "engine.decisions": 4,
                      "engine.early_stops": 1,
                      "decode.patterns": 1000,
                      "decode.distinct_patterns": 100,
                      "decode.cache_hits": 80, "decode.cache_misses": 20,
                      "scheduler.leases": 8,
                      "scheduler.worker_crashes": 1,
                      "scheduler.requeued_leases": 2,
                      "frames.blocks": 8, "frames.ops": 9576,
                      "frames.fused_ops": 976,
                      "frames.depolarize_sites": 7488,
                      "frames.depolarize_hits": 1900,
                      "frames.compiles": 1, "frames.binds": 3,
                      "frames.reseeds": 2,
                      "engine.backend_fallbacks": 3,
                      "stabilizer.native_blocks": 3,
                      "rare.pilot_shots": 6144},
         "gauges": {"rare.pilot_tilt": 8.0, "rare.ess": 512.5},
         "spans": {"sample": {"total_s": 1.5, "count": 8,
                              "child_s": 0.4},
                   "decode": {"total_s": 0.5, "count": 8}},
         "events": {"scheduler.worker_crash": 1},
         "progress": {"points_done": 2, "points_total": 2,
                      "shots_done": 4096, "shots_target": 4096},
         "workers": {"0": {"shots": 2048, "uptime_s": 10.0,
                           "shots_per_s": 204.8}},
         "tasks": [{"label": "point-a", "shots": 2048, "target": 2048,
                    "errors": 3, "done": True}]},
    ]

    def golden_path(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in self.GOLDEN))
        return str(path)

    def test_golden_report(self, tmp_path):
        text = render_report(self.golden_path(tmp_path))
        assert "schema 2, 2 records, final snapshot" in text
        assert "points   2/2 done" in text
        assert "shots    4,096 aggregated (4,096 sampled)" in text
        assert "adaptive 4 watermark decision(s), 1 early stop(s)" in text
        assert "sample" in text and "decode" in text
        # Self time = total minus nested children; spans without a
        # child_s field (pre-schema-2 writers) show self == total.
        assert "1.500s     1.100s self x8" in text
        assert "0.500s     0.500s self x8" in text
        assert "cache hit rate   80.0% (80 hits / 20 misses)" in text
        assert ("frames  8 blocks, 9,576 ops (976 fused); depolarize "
                "7,488 sites, 1,900 hits; 3 program(s) "
                "bound from 1 compiled structure(s) and 2 reseed(s), "
                "3 auto fallback(s) to the tableau") in text
        assert "tableau sampler  3 block(s)" in text
        assert "leases dispatched  8\n" in text
        assert "worker crashes     1 (2 lease(s) requeued)" in text
        assert "worker 0: 2,048 shots, 205 sh/s" in text
        assert "tilt=8 (6,144 pilot shots)" in text
        assert "scheduler.worker_crash  x1" in text

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "no telemetry records" in render_report(str(path))

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in self.GOLDEN)
            + '{"schema": 1, "seq": 2, "kind": "snaps')  # torn write
        assert "points   2/2 done" in render_report(str(path))

    def test_start_only_file(self, tmp_path):
        path = tmp_path / "start.jsonl"
        path.write_text(json.dumps(self.GOLDEN[0]) + "\n")
        assert "no snapshot records" in render_report(str(path))


class TestCliSmoke:
    def test_campaign_telemetry_then_report(self, tmp_path, capsys):
        from repro.cli import main

        spec = {"codes": [["repetition", [3, 1]]], "p_values": [0.05],
                "shots": 512, "workers": 1, "root_seed": 11}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        telemetry = str(tmp_path / "telemetry.jsonl")
        assert main(["campaign", str(spec_path), "--telemetry", telemetry,
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert f"[telemetry written to {telemetry}]" in out
        assert main(["report", telemetry]) == 0
        report = capsys.readouterr().out
        assert "telemetry report" in report
        assert "512" in report


class TestReportPartial:
    """Long-lived service jobs make in-progress telemetry the norm:
    a file with no final record must render, flagged as partial."""

    def snapshot(self, final=False, service=None):
        rec = {"schema": 1, "seq": 1, "time": 5.0, "kind": "snapshot",
               "elapsed_s": 5.0,
               "counters": {"engine.shots": 1024},
               "progress": {"points_done": 1, "points_total": 2,
                            "shots_done": 1024, "shots_target": 2048}}
        if final:
            rec["final"] = True
        if service is not None:
            rec["service"] = service
        return rec

    def write(self, tmp_path, *records):
        path = tmp_path / "telemetry.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    def test_in_progress_file_renders_flagged_partial(self, tmp_path):
        text = render_report(self.write(tmp_path, self.snapshot()))
        assert "PARTIAL" in text
        assert "run still in flight" in text
        assert "points   1/2 done" in text

    def test_final_file_not_flagged(self, tmp_path):
        text = render_report(
            self.write(tmp_path, self.snapshot(final=True)))
        assert "PARTIAL" not in text
        assert "final snapshot" in text

    def test_service_section_renders(self, tmp_path):
        service = {"jobs": 5, "jobs_done": 4, "points": 3,
                   "points_done": 2, "cache_hits": 7, "coalesced": 2,
                   "leases": 6, "slices_completed": 5,
                   "runner_crashes": 1, "failed_leases": 0}
        text = render_report(
            self.write(tmp_path, self.snapshot(service=service)))
        assert "service" in text
        assert "jobs        5 submitted, 4 complete" in text
        assert "cache       7 hit(s), 2 coalesced submission(s)" in text
        assert "1 runner crash(es)" in text

    def test_latest_snapshot_wins(self, tmp_path):
        older = self.snapshot()
        newer = self.snapshot()
        newer["seq"] = 2
        newer["progress"] = {"points_done": 2, "points_total": 2,
                             "shots_done": 2048, "shots_target": 2048}
        text = render_report(self.write(tmp_path, older, newer))
        assert "points   2/2 done" in text
