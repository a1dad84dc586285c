"""Campaign scheduler benchmark: campaign wall-clock vs workers.

The d=5 frames-backend campaign below is decode-bound (MWPM over 10
syndrome rounds under a spreading radiation fault), the regime the
paper's million-shot campaigns live in, executed at the canonical
``SIM_BLOCK`` lease granularity.  The bench runs the identical
campaign at ``workers=1`` (serial engine), ``workers=2`` and
``workers=4`` (scheduler), asserts the merged counts are
**bit-identical** across all settings — the subsystem's determinism
contract — and records shots/second per setting in its ``extra_info``
(pytest-benchmark's ``--benchmark-json`` row).

Acceptance (PR 4): >= 3x wall-clock speedup at ``workers=4`` on a
>= 4-core machine.  The speedup bars are gated on the cores this host
actually has, and ``REPRO_BENCH_LAX`` relaxes them on contended
shared runners (the CI smoke lane sets it); a 1-core sandbox still
verifies determinism and the bounded-overhead bar, and records the
numbers.

A second case holds the store contract's cost claim: the scheduler's
parent process is the store's only writer and appends chunk by chunk,
so a forked campaign costs the same against a large shared store as
against an empty one — nothing is rewritten, merged or reloaded.
"""

import json
import os
import time

from conftest import bench_bar, bench_report

from repro.injection import (SIM_BLOCK, Campaign, CampaignStore, CodeSpec,
                             FaultSpec, InjectionTask)

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


def _counts(results):
    """Per-point ``(shots, errors, raw_errors, corrections)``."""
    return [(r.shots, r.errors, r.raw_errors, r.corrections_applied)
            for r in results]


def _timed_run(workers):
    t0 = time.perf_counter()
    results = _campaign().run(workers=workers)
    return time.perf_counter() - t0, _counts(results)


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

    # Orchestration tax (IPC, aggregation, planning) must stay small
    # even where there is no parallelism to win: parallel wall-clock
    # never exceeds serial by more than 40% + 1s.
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


#: Filler points in the pre-filled store (8 chunk records + 1 done
#: record each: 180 000 records, ~27 MB).
FILLER_KEYS = 20_000


def _prefill(path):
    """A long-lived shared store's worth of other campaigns' points."""
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(FILLER_KEYS):
            key = f"{k:020x}"
            for c in range(8):
                fh.write(json.dumps({
                    "kind": "chunk", "key": key, "start": c * SIM_BLOCK,
                    "shots": SIM_BLOCK, "errors": 3, "raw_errors": 4,
                    "corrections": 5, "elapsed_s": 0.01}) + "\n")
            fh.write(json.dumps({
                "kind": "done", "key": key, "shots": 8 * SIM_BLOCK,
                "errors": 24, "raw_errors": 32, "corrections": 40,
                "swap_count": 0, "elapsed_s": 0.08, "chunks": 8,
                "seed": k, "label": "filler"}) + "\n")


def _store_run(path):
    """Post-open wall of a 4-point / 16-chunk workers=2 campaign."""
    tasks = [InjectionTask(code=CodeSpec("repetition", (3, 1)),
                           intrinsic_p=0.05, shots=4 * SIM_BLOCK,
                           backend="frames").with_tags(bench="store", i=i)
             for i in range(4)]
    store = CampaignStore(path)
    t0 = time.perf_counter()
    results = Campaign(tasks, root_seed=7).run(workers=2, resume=store)
    wall = time.perf_counter() - t0
    store.close()
    return wall, _counts(results)


def test_store_cost_independent_of_store_size(benchmark, capsys, tmp_path):
    """The same forked campaign against an empty store and against a
    ~20 000-key one: once the store is open, its size costs nothing."""
    big = str(tmp_path / "shared.jsonl")
    _prefill(big)
    size_mb = os.path.getsize(big) / 1e6

    empty_s, empty_counts = _store_run(str(tmp_path / "empty.jsonl"))
    big_s, big_counts = benchmark.pedantic(
        lambda: _store_run(big), rounds=1, iterations=1)

    assert big_counts == empty_counts
    assert sorted(os.listdir(tmp_path)) == ["empty.jsonl", "shared.jsonl"]
    bench_report(
        benchmark, capsys,
        f"\n[parallel] workers=2 store run, post-open wall: empty store "
        f"{empty_s:.2f}s, {size_mb:.0f} MB / {FILLER_KEYS}-key store "
        f"{big_s:.2f}s",
        store_mb=size_mb,
        empty_store_wall_s=empty_s,
        filled_store_wall_s=big_s)
    assert big_s < 2.0 * empty_s + 0.5, \
        f"store size leaks into the run: {big_s:.2f}s against " \
        f"{size_mb:.0f} MB vs {empty_s:.2f}s against an empty store"
