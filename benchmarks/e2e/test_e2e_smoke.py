"""Smoke test of the benchmark harness itself.

Lives beside the harness (tier-1 collects ``tests/`` only); run it with
``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.  It checks the
harness, not the engine's speed: every metric ``BENCHMARK.json`` names
is produced, the driver's result line has the contracted shape, a
vanished boundary reads ``null`` rather than zero, and ``compare``
tells worse from unresolved.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import compare  # noqa: E402  (sibling modules, path set above)
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_mirrors_the_harness():
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} \
        == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]} == metrics.END_TO_END
    # The service-only end-to-end metrics ride with the per-layer ones:
    # the driver wants every end-to-end metric on every workload.
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} == {
        **metrics.PER_LAYER,
        **{k: v[:2] for k, v in metrics.SERVICE_END_TO_END.items()}}


def test_smoke_prints_every_metric(tmp_path):
    out = tmp_path / "report.json"
    started = time.perf_counter()
    proc = _run("--smoke", "--json", str(out))
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 30.0
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == list(workloads.NAMES)
    for name, w in report["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] > 0, w["failures"]
        for m in BENCHMARK["end_to_end"]:
            row = w["end_to_end"][m["name"]]
            assert math.isfinite(row["value"]) and row["value"] > 0
            assert row["unit"] == m["unit"]
            assert f"{name:<14} {m['name']:<14}" in proc.stdout
        for m in BENCHMARK["per_layer"]:
            assert m["name"] in proc.stdout
            if m["name"] in metrics.SERVICE_END_TO_END:
                assert (m["name"] in w["end_to_end"]) \
                    == (name == "service_sweep")
                continue
            row = w["per_layer"][m["name"]]
            if row["value"] is None:
                assert row["why"] and row["why"] in proc.stdout
            else:
                assert math.isfinite(row["value"])
        assert w["per_layer"]["trace.missing_boundaries"]["value"] == 0


@pytest.mark.parametrize("trace", (0, 1))
def test_driver_result_line(trace):
    proc = _run("--smoke", "--workload", "quiet_deep", "--seed", "7",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in table]
    for m in table:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_missing_boundary_reads_null_not_zero(monkeypatch):
    gone = "repro.frames.simulator:FrameSimulator.no_such_method"
    monkeypatch.setattr(tracer, "BOUNDARIES", tracer.BOUNDARIES + (
        ("frames.sample", gone),))
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == [gone]
        t.begin_run()
        t.end_run()
        table = t.layer_table(wall_s=1.0)
    finally:
        t.uninstall()
    assert table["frames.sample_s"] is None
    assert table["frames.sample_blocks"] is None
    assert table["frames.shots"] is None
    assert table["frames.compile_s"] == 0
    assert table["trace.missing_boundaries"] == 1


def test_compare_verdicts():
    def report(wall, q1, q3, failed_share=0.0):
        row = {"value": wall, "q1": q1, "q3": q3, "min": q1, "n": 5}
        return {"seed": 1, "size": "default", "workloads": {"w": {
            "failed_share": failed_share, "end_to_end": {"wall_s": row}}}}

    def verdicts(a, b):
        return {r["metric"]: r["verdict"] for r in compare.compare(a, b)}

    bound = metrics.BOUNDED["wall_s"][2]
    base = report(10.0, 9.9, 10.1)
    near, far = 10.0 * (1 + bound / 2), 10.0 * (1 + 1.5 * bound)
    low = 10.0 * (1 - 1.5 * bound)
    assert verdicts(base, report(near, near - .1, near + .1))["wall_s"] \
        == "same"
    assert verdicts(base, report(far, far - .1, far + .1))["wall_s"] \
        == "worse"
    assert verdicts(base, report(low, low - .1, low + .1))["wall_s"] \
        == "better"
    assert verdicts(base, report(far, far * (1 - bound),
                                 far * (1 + bound)))["wall_s"] \
        == "unresolved"
    assert verdicts(base, report(10.0, 9.9, 10.1, 0.1))["failed_share"] \
        == "worse"
