"""Work-stealing scheduler benchmark: campaign wall-clock vs workers.

The d=5 frames-backend campaign below is decode-bound (MWPM over 10
syndrome rounds under a spreading radiation fault), the regime the
paper's million-shot campaigns live in, executed at the canonical
``SIM_BLOCK`` lease granularity.  The bench runs the identical
campaign at ``workers=1`` (serial engine), ``workers=2`` and
``workers=4`` (scheduler), asserts the merged counts are
**bit-identical** across all settings — the subsystem's determinism
contract — and records shots/second per setting for the
``--bench-json`` perf trajectory.

Acceptance (PR 4): >= 3x wall-clock speedup at ``workers=4`` on a
>= 4-core machine.  The speedup bars are gated on the cores this host
actually has, and ``REPRO_BENCH_LAX`` relaxes them on contended
shared runners (the CI smoke lane sets it); a 1-core sandbox still
verifies determinism and the bounded-overhead bar, and records the
numbers.
"""

import os
import time

from conftest import bench_bar, bench_report

from repro.injection import Campaign, CodeSpec, FaultSpec, InjectionTask

#: Shots per campaign point: 6 canonical blocks each.
SHOTS = 3072


def _campaign():
    """Two d=5 rotated-code points under radiation + intrinsic noise,
    pinned to the frame backend (12 blocks ≈ the smallest campaign
    where scheduling, not sampling, decides the wall-clock)."""
    tasks = [
        InjectionTask(
            code=CodeSpec("xxzz", (5, 5)),
            fault=FaultSpec(kind="radiation", root_qubit=root,
                            time_index=5),
            intrinsic_p=0.004, rounds=10, decoder="mwpm",
            backend="frames", shots=SHOTS,
        ).with_tags(bench="parallel", root=root)
        for root in (0, 24)
    ]
    return Campaign(tasks, root_seed=2024)


def _timed_run(workers):
    t0 = time.perf_counter()
    results = _campaign().run(workers=workers)
    return time.perf_counter() - t0, results.counts()


def test_parallel_speedup(benchmark, capsys):
    """workers=1 vs 2 vs 4: identical counts, scaling wall-clock."""
    total_shots = 2 * SHOTS
    cores = os.cpu_count() or 1

    serial_s, serial_counts = _timed_run(1)
    # The benchmark fixture wraps the workers=2 run (one round — each
    # run is seconds of wall-clock), so the JSON row's timing is the
    # scheduler path itself; the other settings ride in extra_info.
    two_s, two_counts = benchmark.pedantic(
        lambda: _timed_run(2), rounds=1, iterations=1)
    four_s, four_counts = _timed_run(4)

    assert two_counts == serial_counts, \
        "workers=2 counts diverge from serial"
    assert four_counts == serial_counts, \
        "workers=4 counts diverge from serial"

    bench_report(
        benchmark, capsys,
        f"\n[parallel] {total_shots} shots, {cores} core(s): "
        f"w1 {serial_s:.2f}s ({total_shots / serial_s:,.0f} sh/s), "
        f"w2 {two_s:.2f}s (x{serial_s / two_s:.2f}), "
        f"w4 {four_s:.2f}s (x{serial_s / four_s:.2f})",
        shots=total_shots,
        cores=cores,
        workers1_shots_per_s=total_shots / serial_s,
        workers2_shots_per_s=total_shots / two_s,
        workers4_shots_per_s=total_shots / four_s,
        speedup_w2=serial_s / two_s,
        speedup_w4=serial_s / four_s)

    # Orchestration tax (IPC, shard-less aggregation, planning) must
    # stay small even where there is no parallelism to win: parallel
    # wall-clock never exceeds serial by more than 40% + 1s.
    assert two_s <= serial_s * 1.4 + 1.0, \
        f"scheduler overhead too high: {two_s:.2f}s vs {serial_s:.2f}s"
    # Scaling bars only where the silicon exists to pay for them.
    # REPRO_BENCH_LAX relaxes them for noisy shared runners (the CI
    # smoke lane sets it: hosted vCPUs are contended, and a single
    # seconds-scale round can miss the dedicated-host bar without any
    # code defect); dev machines keep the strict acceptance bar.
    if cores >= 4:
        bar = bench_bar(3.0, 1.5)
        assert serial_s / four_s >= bar, \
            f"workers=4 speedup {serial_s / four_s:.2f}x < {bar}x on " \
            f"{cores} cores"
    if cores >= 2:
        bar = bench_bar(1.2, 1.05)
        assert serial_s / two_s >= bar, \
            f"workers=2 speedup {serial_s / two_s:.2f}x < {bar}x on " \
            f"{cores} cores"
