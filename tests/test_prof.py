"""Tests for the performance observatory (``repro.obs.prof``):
profiler attribution, the bit-identity contract with profiling
enabled, flamegraph export and the `repro perf record` CLI."""

import dataclasses
import json
import re
import time

import pytest

from repro import obs
from repro.circuits import Circuit
from repro.obs import prof
from repro.injection.campaign import _prepared, _task_context
from repro.injection import (
    AdaptivePolicy,
    Campaign,
    CodeSpec,
    FaultSpec,
    InjectionTask,
    build_sweep,
    run_task,
)
from repro.noise import run_batch_noisy
from oracles.results import counts, payload


@pytest.fixture(autouse=True)
def clean_registry():
    obs.reset()
    yield
    obs.reset()


def d3_sweep(backend, shots=1536):
    spec = {
        "codes": [["xxzz", [3, 3]]],
        "p_values": [0.01, 0.02],
        "shots": shots,
        "backend": backend,
        "root_seed": 29,
    }
    return build_sweep(spec)


FRAMES_TASK = InjectionTask(code=CodeSpec("xxzz", (3, 3)),
                            intrinsic_p=5e-4, rounds=3, decoder="mwpm",
                            backend="frames", shots=512, seed=7)


class TestProfiler:
    def test_off_by_default_and_zero_cost_check(self):
        assert prof._ACTIVE is None
        assert prof.snapshot_active() is None

    def test_enable_disable_lifecycle(self):
        p = prof.enable()
        assert prof._ACTIVE is p
        assert prof.enable() is p  # idempotent
        prof.disable()
        assert prof._ACTIVE is None

    def test_obs_reset_disables(self):
        prof.enable()
        obs.reset()
        assert prof._ACTIVE is None

    def test_span_path_self_time(self):
        with prof.profile() as p:
            with obs.span("outer"):
                time.sleep(0.02)
                with obs.span("inner"):
                    time.sleep(0.01)
        snap = p.snapshot()
        outer = snap["paths"]["outer"]
        inner = snap["paths"]["outer/inner"]
        assert inner["total_s"] <= outer["total_s"]
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"], abs=2e-6)
        assert inner["self_s"] == inner["total_s"]

    def test_registry_child_s_matches(self):
        """The always-on child_s accumulation (report self-time) agrees
        with the profiler's path view."""
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.01)
        spans = obs.registry().snapshot()["spans"]
        assert spans["outer"]["child_s"] == pytest.approx(
            spans["inner"]["total_s"], abs=1e-6)
        assert spans["inner"]["child_s"] == 0.0

    def test_kernel_buckets_and_decode_stages(self):
        # first-call costs (library load, numpy's ctypes interface) are
        # not the loop's
        run_batch_noisy(Circuit(1).h(0).measure(0, 0), None, 64, rng=0,
                        backend="frames")
        # ... and no earlier run may have left the decoder warm (the
        # matcher assertions below)
        _task_context.cache_clear()
        _prepared.cache_clear()
        obs.reset()
        with prof.profile() as p:
            run_task(FRAMES_TASK)
        snap = p.snapshot()
        kernels = snap["kernels"]
        # The kernel clocks its loop where the opcode changes: the
        # buckets tile the block's wall but for the entry and exit.
        wall = sum(blk[0] for blk in p._blocks.values())
        assert 0.5 * wall < sum(row["total_s"] for row in kernels.values()) \
            <= wall * (1 + 1e-6)
        ran = obs.registry().snapshot()["counters"]
        assert ran["frames.blocks"] == 1
        # The d=3 xxzz program fuses its layers: both scalar and fused
        # kinds appear, fused ops count their width.
        assert "cx.fused" in kernels and "measure.fused" in kernels
        for row in kernels.values():
            assert row["ops"] >= row["calls"] > 0
            assert row["total_s"] >= 0.0
        fused = kernels["cx.fused"]
        assert fused["ops"] > fused["calls"]
        # Decode stage attribution ties out against the cache counters.
        counters = obs.registry().snapshot()["counters"]
        stages = snap["stages"]
        assert stages["decode.dedup"]["calls"] >= 1
        assert stages["decode.cache_probe"]["calls"] \
            == counters["decode.distinct_patterns"]
        assert stages["decode.matcher"]["calls"] \
            == counters["decode.cache_misses"]
        # Kernels land beneath the span they executed in.
        assert any(path.startswith("sample/frames.")
                   for path in snap["paths"])
        assert "decode/decode.matcher" in snap["paths"]

    def test_a_wide_execution_is_one_profiled_block(self):
        """``begin_block`` brackets one execution, however many lanes
        (canonical blocks, what ``frames.blocks`` counts) it carries —
        and clocking it changes no count."""
        deep = dataclasses.replace(FRAMES_TASK, shots=8 * 512)
        baseline = run_task(deep)
        obs.reset()
        with prof.profile() as p:
            profiled = run_task(deep)
        snap = p.snapshot()
        assert payload(profiled) == payload(baseline)
        assert snap["sampling"]["blocks"] == snap["sampling"]["sampled"] == 1
        counters = obs.registry().snapshot()["counters"]
        assert counters["frames.blocks"] == counters["engine.blocks"] == 8
        assert counters["engine.chunks"] == 4
        # every op was dispatched — and clocked — once for the span
        assert sum(row["calls"] for row in snap["kernels"].values()) \
            == counters["frames.ops"]

    def test_blossom_share_is_a_sub_stage_of_the_matcher(self):
        """Patterns past the DP limit (a strike produces them) are
        timed beneath ``decode.matcher``, not beside it."""
        strike = InjectionTask(
            code=CodeSpec("xxzz", (5, 5)), intrinsic_p=1e-3, rounds=5,
            fault=FaultSpec(kind="radiation", root_qubit=12, time_index=0),
            decoder="mwpm", backend="frames", shots=256, seed=7)
        with prof.profile() as p:
            run_task(strike)
        snap = p.snapshot()
        matcher = snap["stages"]["decode.matcher"]
        blossom = snap["stages"]["decode.matcher.blossom"]
        assert 1 <= blossom["calls"] < matcher["calls"]
        assert blossom["total_s"] <= matcher["total_s"]
        assert "decode/decode.matcher/decode.matcher.blossom" \
            in snap["paths"]
        # three values each rounded to 1e-6 by the snapshot: up to
        # 1.5e-6 apart on rounding alone
        assert snap["paths"]["decode/decode.matcher"]["self_s"] \
            <= matcher["total_s"] - blossom["total_s"] + 2e-6

    def test_tableau_fallback_is_attributed(self):
        """An ``auto`` XXZZ strike resets entangled data qubits, falls
        back to the batched tableau, and its ``sample`` span splits into
        the four tableau stages — once per block, counts untouched: the
        native walk clocks them in C, all four appear and sum to no
        more than the span."""
        strike = InjectionTask(
            code=CodeSpec("xxzz", (3, 3)), intrinsic_p=1e-3,
            fault=FaultSpec(kind="radiation", root_qubit=2, time_index=0),
            backend="auto", shots=1024, seed=7)
        baseline = run_task(strike)
        obs.reset()
        with prof.profile() as p:
            profiled = run_task(strike)
        assert (profiled.shots, profiled.errors) \
            == (baseline.shots, baseline.errors)
        counters = obs.registry().snapshot()["counters"]
        assert counters["stabilizer.native_blocks"] == 2
        snap = p.snapshot()
        sample = snap["paths"]["sample"]
        parts = 0.0
        for name in ("tableau.gates", "tableau.measure_det",
                     "tableau.measure_rand", "tableau.noise"):
            assert snap["stages"][name]["calls"] == 2  # 512-shot blocks
            assert snap["stages"][name]["total_s"] > 0.0
            parts += snap["paths"][f"sample/{name}"]["total_s"]
        assert parts <= sample["total_s"] + 1e-5
        assert not snap["kernels"]  # no frames block ran

    def test_flame_lines_collapsed_stack_format(self):
        with prof.profile() as p:
            run_task(FRAMES_TASK)
        lines = p.flame_lines()
        assert lines
        for line in lines:
            assert re.fullmatch(r"[^ ]+(;[^ ]+)* \d+", line), line
        assert any(line.startswith("sample;frames.") for line in lines)

    def test_snapshot_json_roundtrip_and_merge(self):
        with prof.profile() as p:
            run_task(FRAMES_TASK)
        snap = p.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        merged = obs.merge_snapshots(
            {"counters": {}, "profile": snap}, [{"profile": snap}])
        cx = merged["profile"]["kernels"]["cx.fused"]
        assert cx["calls"] == 2 * snap["kernels"]["cx.fused"]["calls"]

    def test_render_profile_text(self):
        with prof.profile() as p:
            run_task(FRAMES_TASK)
        text = prof.render_profile(p.snapshot())
        assert "kernel buckets" in text
        assert "decode.dedup" in text
        assert "span paths by self-time" in text
        assert prof.render_profile({}) == "profile: no samples recorded"


@pytest.mark.parametrize("backend", ["frames", "tableau"])
class TestBitIdentity:
    """Profiling on vs off changes nothing about counts or adaptive
    stop shots — the profiler reads clocks only, never RNG."""

    def test_counts_identical(self, backend):
        campaign = d3_sweep(backend)
        baseline = Campaign(campaign.tasks, root_seed=29).run(
            workers=1)
        with prof.profile():
            profiled = Campaign(campaign.tasks, root_seed=29).run(
                workers=1)
        assert counts(profiled) == counts(baseline)
        assert payload(profiled) == payload(baseline)

    def test_adaptive_stop_shots_identical(self, backend):
        campaign = d3_sweep(backend, shots=8192)
        policy = AdaptivePolicy(rel_halfwidth=0.3, min_shots=512)
        baseline = Campaign(campaign.tasks, root_seed=29).run(
            workers=1, adaptive=policy)
        with prof.profile():
            profiled = Campaign(campaign.tasks, root_seed=29).run(
                workers=1, adaptive=policy)
        assert [r.shots for r in profiled] == [r.shots for r in baseline]
        assert counts(profiled) == counts(baseline)

    def test_parallel_counts_identical(self, backend):
        """Workers fork with the profiler enabled in the parent; the
        worker entry (obs.reset) drops it, and counts still match the
        serial run exactly."""
        campaign = d3_sweep(backend)
        baseline = Campaign(campaign.tasks, root_seed=29).run(
            workers=1)
        with prof.profile():
            profiled = Campaign(campaign.tasks, root_seed=29).run(
                workers=2)
        assert counts(profiled) == counts(baseline)


class TestTelemetryIntegration:
    def test_profile_section_in_telemetry_and_report(self, tmp_path):
        from repro.obs.report import render_report

        path = str(tmp_path / "t.jsonl")
        with prof.profile():
            with obs.session(telemetry=path, quiet=True):
                run_task(FRAMES_TASK)
        snap = obs.last_snapshot(obs.load_telemetry(path))
        profile = snap["profile"]
        assert profile["kernels"]
        assert profile["stages"]
        text = render_report(path)
        assert "profile" in text
        assert "kernel buckets" in text

    def test_no_profile_section_when_off(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.session(telemetry=path, quiet=True):
            run_task(FRAMES_TASK)
        snap = obs.last_snapshot(obs.load_telemetry(path))
        assert "profile" not in snap

    def test_prometheus_profile_families(self):
        with prof.profile() as p:
            run_task(FRAMES_TASK)
        snap = obs.registry().snapshot()
        snap["profile"] = p.snapshot()
        text = obs.render_prometheus(snap)
        assert "# TYPE repro_kernel_seconds_total counter" in text
        assert 'repro_kernel_seconds_total{kind="cx.fused"}' in text
        assert 'repro_kernel_ops_total{kind="measure.fused"}' in text
        assert 'repro_profile_stage_seconds_total{stage="decode.dedup"}' \
            in text


class TestPerfRecordCli:
    def test_record_wraps_campaign(self, tmp_path, capsys):
        from repro.cli import main

        spec = {"codes": [["xxzz", [3, 3]]], "p_values": [0.01],
                "shots": 512, "backend": "frames", "root_seed": 11}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        flame = tmp_path / "flame.txt"
        pjson = tmp_path / "profile.json"
        telemetry = str(tmp_path / "t.jsonl")
        assert main(["perf", "record", "--flame", str(flame),
                     "--json", str(pjson), "--",
                     "campaign", str(spec_path), "--quiet",
                     "--telemetry", telemetry]) == 0
        out = capsys.readouterr().out
        assert "kernel buckets" in out
        assert f"[flamegraph stacks written to {flame}]" in out
        stacks = flame.read_text().strip().splitlines()
        assert stacks
        for line in stacks:
            assert re.fullmatch(r"[^ ]+(;[^ ]+)* \d+", line), line
        profile = json.loads(pjson.read_text())
        assert profile["kernels"]
        # The wrapped run's telemetry carries the profile section too.
        snap = obs.last_snapshot(obs.load_telemetry(telemetry))
        assert snap["profile"]["kernels"]
        # The profiler does not leak past the command.
        assert prof._ACTIVE is None

    def test_record_without_command_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["perf", "record"])

    def test_record_is_the_only_subcommand(self, capsys):
        """The bench-history gate is gone: ``perf`` offers ``record``
        alone and refuses the old ``ingest``/``trend``/``check``."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["perf", "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        listed = re.findall(r"^    (\w+) ", usage, flags=re.M)
        assert listed == ["record"]
        for gone in ("ingest", "trend", "check"):
            with pytest.raises(SystemExit) as exc:
                main(["perf", gone])
            assert exc.value.code == 2
            assert f"invalid choice: '{gone}'" in capsys.readouterr().err
