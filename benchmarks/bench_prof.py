"""Profiler overhead benchmark: profiling on vs off, d=5 hot path.

The profiler's contract is stricter than the telemetry layer's: when
off it costs one ``None``-check per ``run_packed`` call, and when *on*
the per-op kernel attribution (``perf_counter`` reads at opcode-run
boundaries of the executor's dispatch loop, one block in
``prof.SAMPLE_EVERY``) must stay under 2% on the d=5
frames campaign the decode benchmark uses (p=5e-4, MWPM, 32 canonical
blocks).  Interleaved min-of-``REPEATS`` per setting filters scheduler
noise; ``REPRO_BENCH_LAX`` relaxes the bar for contended CI runners.
Counts must match exactly either way — the profiler reads clocks only,
never RNG.
"""

import time

from conftest import bench_bar, bench_report

from repro.obs import prof
from repro.injection import CodeSpec, InjectionTask, run_task

#: 32 canonical blocks of the bench_obs / bench_decode_batch workload:
#: ~0.1 s a run, the scale the 2% bar was set at (at 8 blocks a run is
#: ~25 ms and host jitter alone swings the ratio by +-2%).
SHOTS = 16384

TASK = InjectionTask(code=CodeSpec("xxzz", (5, 5)), intrinsic_p=5e-4,
                     rounds=5, decoder="mwpm", backend="frames",
                     shots=SHOTS, seed=2024)

#: Interleaved repeats per setting; min-of filters scheduler noise.
#: Higher than bench_obs because the margin under test is ~1pp —
#: true overhead sits near 1% against a 2% bar.
REPEATS = 15


def _timed_run():
    t0 = time.perf_counter()
    result = run_task(TASK)
    return time.perf_counter() - t0, result


def test_profiler_overhead(benchmark, capsys):
    """run_task under ``prof.profile()`` must stay within 2% of plain."""
    _, base = _timed_run()   # warm the task context (lowering, graph)

    off, on = [], []
    for _ in range(REPEATS):
        dt, plain = _timed_run()
        off.append(dt)
        with prof.profile():
            dt, profiled = _timed_run()
        on.append(dt)
        # Counts are a pure function of the task: attribution that
        # consumed RNG or reordered sampling would show up right here.
        assert profiled.errors == plain.errors == base.errors
        assert profiled.shots == plain.shots == SHOTS

    # The fixture's row records the profiled path, and the snapshot
    # sanity-checks that the run actually exercised the kernel tables.
    with prof.profile() as profiler:
        benchmark.pedantic(lambda: run_task(TASK), rounds=1, iterations=1)
    snap = profiler.snapshot()
    assert snap["kernels"], "profiled run recorded no kernel buckets"
    assert snap["stages"], "profiled run recorded no decode stages"

    off_s, on_s = min(off), min(on)
    overhead = on_s / off_s - 1.0
    bench_report(
        benchmark, capsys,
        f"\n[prof] {SHOTS} shots d=5 p=5e-4: "
        f"off {off_s:.3f}s ({SHOTS / off_s:,.0f} sh/s), "
        f"on {on_s:.3f}s ({SHOTS / on_s:,.0f} sh/s), "
        f"overhead {overhead:+.2%}, "
        f"{len(snap['kernels'])} kernel bucket(s)",
        shots=SHOTS,
        off_shots_per_s=SHOTS / off_s,
        on_shots_per_s=SHOTS / on_s,
        overhead_frac=overhead,
        kernel_buckets=len(snap["kernels"]))

    bar = bench_bar(0.02, 0.15)
    assert overhead < bar, \
        f"profiler overhead {overhead:.2%} >= {bar:.0%} on the d=5 " \
        f"frames hot path"
