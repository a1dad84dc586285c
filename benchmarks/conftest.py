"""Shared benchmark configuration.

Figure benchmarks regenerate each paper figure's data series at reduced
shot counts (statistics scale with shots; the series *shape* is already
visible at bench scale) and print the same rows the paper reports.
Full-scale numbers come from ``repro headline`` and
``scripts/run_all_experiments.py`` (``results/``).

CI's microbench step passes pytest-benchmark's own ``--benchmark-json
PATH``: its rows carry each benchmark's ``extra_info`` (shots, rates,
bars) with the machine and commit info.  ``BENCH_*.json`` at the repo
root is an end-to-end report of ``benchmarks/e2e/run.py``, which
``benchmarks/e2e/compare.py`` judges parent against change.

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

import os
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
    ``--benchmark-json`` row) and print ``message`` past capture."""
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


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure: regenerates a paper figure's data series")


@pytest.fixture(scope="session")
def bench_shots():
    """Shots per configuration point at bench scale."""
    return 200
