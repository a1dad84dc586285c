"""Shared benchmark configuration.

Figure benchmarks regenerate each paper figure's data series at reduced
shot counts (statistics scale with shots; the series *shape* is already
visible at bench scale) and print the same rows the paper reports.
Full-scale numbers come from ``repro headline`` and
``scripts/run_all_experiments.py`` (``results/``).

``--bench-json PATH`` dumps a machine-readable summary of every
benchmark that ran — wall time, rounds, and shots/second for
benchmarks that declare ``extra_info["shots"]`` — so the performance
trajectory can be tracked across commits (CI uploads the bench-smoke
job's file as an artifact, named ``BENCH_*.json`` when archived).
The payload also embeds the session's ``repro.obs`` telemetry
snapshot, so decode-cache hit rates, phase timings and shot counters
ride the same perf-trajectory file, and a ``provenance`` block (git
sha, python version, platform, cpu count) — the identity
``repro perf ingest`` keys the durable bench history on.

Shared helpers (benchmarks import them ``from conftest``):

* :func:`bench_bar` — pick the strict acceptance bar or the relaxed
  one when ``REPRO_BENCH_LAX`` is set (contended CI runners).
* :func:`bench_report` — record ``extra_info`` keys and print one
  summary line past pytest's capture, in one call.
* :func:`best_of` — best-of-N seconds of a target, with or without
  ``--benchmark-disable``.

Benchmarks that time a C kernel against its Python oracle import the
oracle from ``tests/oracles`` (put on ``sys.path`` below).
"""

import json
import os
import platform
import subprocess
import sys
import time

import pytest

# Keep worker pools modest under the benchmark runner.
os.environ.setdefault("REPRO_WORKERS", "8")

# The kernels' oracles (tests/oracles), which benches time the kernels
# against.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))


def bench_bar(strict, lax):
    """The acceptance bar for this run: ``strict`` on dev machines,
    ``lax`` when ``REPRO_BENCH_LAX`` is set (hosted vCPUs are
    contended; a single seconds-scale round can miss a dedicated-host
    bar without any code defect)."""
    return lax if os.environ.get("REPRO_BENCH_LAX") else strict


def bench_report(benchmark, capsys, message, **extra):
    """Record ``extra`` into the benchmark's ``extra_info`` (the
    ``--bench-json`` row) and print ``message`` past capture."""
    for key, value in extra.items():
        benchmark.extra_info[key] = value
    with capsys.disabled():
        print(message)


def best_of(benchmark, target, rounds, args=(), setup=None):
    """Run ``target`` ``rounds`` times through ``benchmark.pedantic``
    (``setup`` returning each round's ``(args, kwargs)``, as pedantic
    takes it) and return its last result and its best seconds, timed
    here.  A disabled benchmark calls the target once and keeps no
    stats, so the remaining rounds run here: the bars see the same
    best-of-``rounds`` either way."""
    times = []

    def timed(*a, **kw):
        t0 = time.perf_counter()
        try:
            return target(*a, **kw)
        finally:
            times.append(time.perf_counter() - t0)

    result = benchmark.pedantic(timed, args=args, setup=setup,
                                rounds=rounds, iterations=1)
    while len(times) < rounds:
        a, kw = setup() if setup is not None else (args, {})
        result = timed(*a, **kw)
    return result, min(times)


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json", action="store", default=None, metavar="PATH",
        help="write per-benchmark wall-time / shots-per-second JSON here")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure: regenerates a paper figure's data series")


@pytest.fixture(scope="session")
def bench_shots():
    """Shots per configuration point at bench scale."""
    return 200


def _bench_row(bench):
    """One JSON row per benchmark; defensive — a malformed stats object
    (e.g. under ``--benchmark-disable``) must not break the session."""
    try:
        data = bench.as_dict(include_data=False)
    except Exception:
        return None
    stats = data.get("stats") or {}
    row = {
        "name": data.get("name"),
        "fullname": data.get("fullname"),
        "group": data.get("group"),
        "mean_s": stats.get("mean"),
        "min_s": stats.get("min"),
        "stddev_s": stats.get("stddev"),
        "rounds": stats.get("rounds"),
        "extra_info": data.get("extra_info") or {},
    }
    shots = row["extra_info"].get("shots")
    if shots and row["min_s"]:
        row["shots_per_s"] = shots / row["min_s"]
    return row


def _git_sha():
    """Best-effort HEAD sha; ``None`` outside a checkout (or without
    git) — `repro perf ingest` keys such points on their timestamp."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _provenance():
    """The provenance block ``repro perf ingest`` keys history on:
    commit identity plus the machine fingerprint inputs."""
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "system": platform.system(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("bench_json")
    if not path:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    benchmarks = getattr(bench_session, "benchmarks", None) or []
    rows = [r for r in map(_bench_row, benchmarks) if r is not None]
    payload = {
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "provenance": _provenance(),
        "benchmarks": rows,
    }
    try:
        from repro import obs
    except ImportError:
        pass
    else:
        payload["telemetry"] = obs.registry().snapshot()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
