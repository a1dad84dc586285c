"""The perf gate: ``benchmarks/e2e/compare.py parent.json change.json``.

CI's ``perf-gate`` job runs the e2e benchmark on the parent and on the
change on one runner and lets ``compare.py``'s exit status decide.
These tests run that same command line on synthetic reports and hold
the verdicts the job depends on: a metric past its ``BENCHMARK.json``
bound fails it, a change inside the bound or an ``unresolved`` row (the
spread is too wide to tell) does not, and a rise in ``failed_share``
does.  The workflow's own job is checked for the steps that make the
gate armed and its verdicts visible.
"""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMPARE = ROOT / "benchmarks" / "e2e" / "compare.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CI = (ROOT / ".github" / "workflows" / "ci.yml").read_text()

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
VERDICTS = {"same", "better", "worse", "unresolved"}

#: A plausible median per end-to-end metric.
VALUES = {"wall_s": 2.0, "shots_per_s": 50000.0, "setup_s": 0.4,
          "peak_rss_mb": 120.0}


def row(value, spread=0.01):
    """One end-to-end metric of a report: median and quartiles."""
    return {"value": value, "q1": value * (1 - spread),
            "q3": value * (1 + spread), "min": value * (1 - spread),
            "n": 5}


def report():
    """A report of every workload, shaped like ``run.py --json``."""
    workloads = {}
    for name in WORKLOADS:
        e2e = {metric: row(value) for metric, value in VALUES.items()}
        if name == "service_sweep":
            e2e["cached_ms_p50"] = row(3.0)
            e2e["cached_ms_p90"] = row(5.0)
        workloads[name] = {
            "failed_share": 0.0, "end_to_end": e2e,
            "per_layer": {"frames.sample_blocks": {"value": 40},
                          "parallel.steals": {"value": 2}}}
    return {"seed": 2024, "size": "default", "workloads": workloads}


def gate(tmp_path, parent, change):
    """Run the gate's command line; (exit status, verdict per row)."""
    (tmp_path / "parent.json").write_text(json.dumps(parent))
    (tmp_path / "change.json").write_text(json.dumps(change))
    proc = subprocess.run(
        [sys.executable, str(COMPARE), str(tmp_path / "parent.json"),
         str(tmp_path / "change.json")],
        capture_output=True, text=True, timeout=60)
    verdicts = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) > 2 and fields[0] in WORKLOADS \
                and fields[-1] in VERDICTS:
            verdicts[(fields[0], fields[1])] = fields[-1]
    return proc.returncode, verdicts, proc.stdout


def scaled(base, workload, metric, factor, spread=0.01):
    out = copy.deepcopy(base)
    value = base["workloads"][workload]["end_to_end"][metric]["value"]
    out["workloads"][workload]["end_to_end"][metric] = \
        row(value * factor, spread)
    return out


class TestVerdicts:
    def test_bounds_are_benchmark_json(self):
        """The gate judges by the bounds the benchmark declares."""
        spec = importlib.util.spec_from_file_location(
            "e2e_metrics", COMPARE.parent / "metrics.py")
        metrics = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(metrics)
        assert {m: b for m, (_, _, b) in metrics.END_TO_END.items()} \
            == BOUNDS
        assert BOUNDS["wall_s"] == 0.25 and BOUNDS["peak_rss_mb"] == 0.10

    def test_parent_against_itself_passes(self, tmp_path):
        status, verdicts, out = gate(tmp_path, report(), report())
        assert status == 0
        # 4 metrics + failed_share per workload, 2 more on the service.
        assert len(verdicts) == 5 * len(WORKLOADS) + 2
        assert set(verdicts.values()) == {"same"}
        assert "per-layer counts that differ: 0" in out

    # Past the bound, in the metric's own bad direction.
    @pytest.mark.parametrize("metric,factor", [
        ("wall_s", 1.5), ("setup_s", 1.4), ("shots_per_s", 0.6),
        ("peak_rss_mb", 1.15)])
    def test_slowdown_past_bound_fails(self, tmp_path, metric, factor):
        base = report()
        status, verdicts, _ = gate(
            tmp_path, base, scaled(base, "quiet_deep", metric, factor))
        assert status == 1
        assert verdicts[("quiet_deep", metric)] == "worse"
        assert list(verdicts.values()).count("worse") == 1

    # Inside the bound: jitter the gate must let through.
    @pytest.mark.parametrize("workload,metric,factor", [
        ("quiet_deep", "wall_s", 1.2), ("strike_decode", "shots_per_s", 0.85),
        ("fig5_grid", "peak_rss_mb", 1.08),
        ("service_sweep", "cached_ms_p50", 1.12)])
    def test_change_inside_bound_passes(self, tmp_path, workload, metric,
                                        factor):
        base = report()
        status, verdicts, _ = gate(
            tmp_path, base, scaled(base, workload, metric, factor))
        assert status == 0
        assert verdicts[(workload, metric)] == "same"

    def test_speedup_is_better_and_passes(self, tmp_path):
        base = report()
        status, verdicts, _ = gate(
            tmp_path, base, scaled(base, "strike_decode", "wall_s", 0.5))
        assert status == 0
        assert verdicts[("strike_decode", "wall_s")] == "better"

    def test_unresolved_never_fails(self, tmp_path):
        """A 1.5x wall whose quartiles spread wider than the bound is
        ``unresolved``: the runs cannot tell, so the job passes."""
        base = report()
        status, verdicts, _ = gate(
            tmp_path, base,
            scaled(base, "fig5_grid", "wall_s", 1.5, spread=0.2))
        assert status == 0
        assert verdicts[("fig5_grid", "wall_s")] == "unresolved"

    def test_failed_share_rise_fails(self, tmp_path):
        base = report()
        change = copy.deepcopy(base)
        change["workloads"]["service_sweep"]["failed_share"] = 0.2
        status, verdicts, _ = gate(tmp_path, base, change)
        assert status == 1
        assert verdicts[("service_sweep", "failed_share")] == "worse"

    def test_failed_share_fall_passes(self, tmp_path):
        parent = report()
        parent["workloads"]["service_sweep"]["failed_share"] = 0.2
        status, verdicts, _ = gate(tmp_path, parent, report())
        assert status == 0
        assert verdicts[("service_sweep", "failed_share")] == "same"

    def test_workload_on_one_side_only_is_skipped(self, tmp_path):
        """No verdict without both sides; its counts show it missing."""
        base = report()
        change = copy.deepcopy(base)
        del change["workloads"]["fig5_grid"]
        status, verdicts, out = gate(tmp_path, base, change)
        assert status == 0
        assert not any(w == "fig5_grid" for w, _ in verdicts)
        assert len(verdicts) == 5 * (len(WORKLOADS) - 1) + 2
        assert "fig5_grid frames.sample_blocks: 40 -> None" in out

    def test_moved_counts_are_listed_not_judged(self, tmp_path):
        """Per-layer counts explain a verdict and never make one; the
        timing-dependent steal count is not even listed."""
        base = report()
        change = copy.deepcopy(base)
        layers = change["workloads"]["quiet_deep"]["per_layer"]
        layers["frames.sample_blocks"]["value"] = 80
        layers["parallel.steals"]["value"] = 9
        status, _, out = gate(tmp_path, base, change)
        assert status == 0
        assert "per-layer counts that differ: 1" in out
        assert "quiet_deep frames.sample_blocks: 40 -> 80" in out

    def test_different_seed_or_size_is_noted(self, tmp_path):
        change = report()
        change["size"] = "small"
        status, _, out = gate(tmp_path, report(), change)
        assert status == 0
        assert "note: comparing seed/size 2024/default with 2024/small" \
            in out


def ci_steps(job):
    """The steps of one CI job, each as its block of YAML text."""
    lines = CI.split(f"\n  {job}:\n", 1)[1].splitlines()
    end = next((i for i, line in enumerate(lines)
                if line.strip() and not line.startswith("   ")),
               len(lines))
    steps = []
    for line in lines[:end]:
        if line.startswith("      - "):
            steps.append("")
        if steps:
            steps[-1] += line + "\n"
    return steps


class TestCiJob:
    STEPS = ci_steps("perf-gate")

    def step(self, needle):
        return next(s for s in self.STEPS if needle in s)

    def test_both_sides_run_the_benchmark_and_compare_judges(self):
        parent = self.step("parent.json\"")
        change = self.step("--json change.json")
        for side in (parent, change):
            assert "PYTHONPATH=src" in side
            assert "repro.__file__" in side
            assert "--reps 5" in side
        assert "working-directory: ${{ runner.temp }}/parent" in parent
        verdict = self.step("compare.py parent.json change.json")
        assert "pipefail" in verdict
        assert "if: steps.parent.outputs.sha\n" in verdict

    def test_verdicts_and_reports_survive_a_failed_gate(self):
        summary = self.step("GITHUB_STEP_SUMMARY")
        assert "if: always() && steps.parent.outputs.sha" in summary
        upload = self.step("actions/upload-artifact")
        assert "if: always() && steps.parent.outputs.sha" in upload
        for path in ("parent.json", "change.json", "compare.txt"):
            assert f"            {path}\n" in upload

    def test_no_parent_is_a_skip_not_a_failure(self):
        find = self.step("git worktree add")
        assert "perf gate skipped" in find
        assert "exit 0" in find
        later = self.STEPS[self.STEPS.index(find) + 1:]
        assert len(later) == 5
        assert all("steps.parent.outputs.sha" in s for s in later)
