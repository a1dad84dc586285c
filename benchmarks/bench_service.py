"""Service tracing overhead benchmark: trace contexts on vs off.

The dispatch head derives every lease's span context up front and the
executing side wraps each slice in two trace spans (lease + chunk)
whose phase children come from registry *deltas* — no per-shot work.
The contract is the same as the telemetry layer's: < 2% overhead on
the d=5 frames hot path, and bit-identical counts (trace ids are
sha1 of the work's coordinates; nothing touches RNG).

This bench drains the same d=5 campaign the decode benchmark uses
(p=5e-4, MWPM, 8 canonical blocks) through a real
:class:`~repro.service.Dispatcher` — submit, lease, execute, complete,
spans over the wire payload — with :mod:`repro.obs.trace` enabled and
disabled, interleaved min-of-``REPEATS`` per setting.  Every run gets
a fresh store so the content-addressed cache can never short-circuit
the comparison.  ``REPRO_BENCH_LAX`` relaxes the bar for contended CI
runners.

The second bench is the per-point cost of tiny points, the shape of
the e2e benchmark's ``service_sweep``: 48 repetition points of one
512-shot slice each drained through a :class:`~repro.service.
Dispatcher`, each round on a fresh root seed (new tasks, so every
point pays its key, context and lease, while the compiled structures
stay warm).  It reports ms per point split into the frames kernel and
the rest — lease, wire, task context, decode, completion, store — and
holds the rest to a bar.

The third bench is the head's own cost on those tiny points: each
round runs them, on a fresh root seed, through a background
:class:`~repro.service.CampaignService` with one in-process slot
(submit over HTTP, wait on the job stream) and through
``Campaign.run(workers=1)``, interleaved, and holds the best-of ratio
of the two walls to a bar.
"""

import time

from conftest import bench_bar, bench_report, best_of

from repro.frames import _native as frames_native
from repro.injection import CampaignStore, build_sweep
from repro.obs import trace
from repro.service import CampaignService, Dispatcher, ServiceClient
from repro.service.dispatcher import execute_lease_wire

#: 8 canonical blocks, same workload as bench_decode_batch / bench_obs.
SHOTS = 4096

SPEC = {
    "codes": [["xxzz", [5, 5]]],
    "p_values": [5e-4],
    "shots": SHOTS,
    "rounds": 5,
    "decoder": "mwpm",
    "backend": "frames",
    "root_seed": 2024,
}

#: Interleaved repeats per setting; min-of filters scheduler noise.
REPEATS = 5


def _drain_once(tmp_path, tag):
    """Submit SPEC to a fresh head and pump it dry synchronously,
    exactly like the server's local pool does (spans ride the
    completion payload).  Returns (wall seconds, results rows)."""
    store = CampaignStore(tmp_path / f"store-{tag}.jsonl")
    dispatcher = Dispatcher(store, slice_shots=512)
    t0 = time.perf_counter()
    receipt = dispatcher.submit(SPEC)
    while True:
        leases = dispatcher.lease(runner="bench", max_leases=8)
        if not leases:
            break
        for lease in leases:
            payload = execute_lease_wire(lease.to_wire())
            dispatcher.complete(payload["lease"], payload["chunks"],
                                runner="bench", key=payload["key"],
                                spans=payload.get("spans"))
    dt = time.perf_counter() - t0
    rows = dispatcher.job_status(receipt["job"])["results"]
    return dt, rows


def test_trace_overhead(benchmark, capsys, tmp_path):
    """Dispatcher drain with tracing on must stay within 2% of off."""
    _drain_once(tmp_path, "warm")  # warm the task context (lowering)

    off, on = [], []
    rows_off = rows_on = None
    try:
        for i in range(REPEATS):
            trace.set_enabled(False)
            dt, rows_off = _drain_once(tmp_path, f"off-{i}")
            off.append(dt)
            trace.set_enabled(True)
            dt, rows_on = _drain_once(tmp_path, f"on-{i}")
            on.append(dt)
            # Trace ids are derived, never drawn: counts must match.
            for a, b in zip(rows_off, rows_on):
                assert (a["shots"], a["errors"]) == \
                    (b["shots"], b["errors"])
                assert a["shots"] == SHOTS

        benchmark.pedantic(
            lambda: _drain_once(tmp_path, f"bench-{time.monotonic_ns()}"),
            rounds=1, iterations=1)
    finally:
        trace.set_enabled(True)
        trace.reset()

    off_s, on_s = min(off), min(on)
    overhead = on_s / off_s - 1.0
    bench_report(
        benchmark, capsys,
        f"\n[service] {SHOTS} shots d=5 p=5e-4 via dispatcher: "
        f"trace off {off_s:.3f}s ({SHOTS / off_s:,.0f} sh/s), "
        f"on {on_s:.3f}s ({SHOTS / on_s:,.0f} sh/s), "
        f"overhead {overhead:+.2%}",
        shots=SHOTS,
        off_shots_per_s=SHOTS / off_s,
        on_shots_per_s=SHOTS / on_s,
        overhead_frac=overhead)

    bar = bench_bar(0.02, 0.15)
    assert overhead < bar, \
        f"trace overhead {overhead:.2%} >= {bar:.0%} on the d=5 " \
        f"frames dispatch path"


#: 4 codes x 4 faults x 3 p = 48 points of one slice each.
TINY_SPEC = {
    "codes": [["repetition", [d, 1]] for d in (3, 5, 7, 9)],
    "archs": ["almaden"],
    "faults": [{"kind": "none"}] + [
        {"kind": "radiation", "root_qubit": 0, "time_index": t}
        for t in (0, 4, 8)],
    "p_values": [1e-4, 1e-3, 1e-2],
    "shots": 512,
}
TINY_POINTS = 48


def test_tiny_point_cost(benchmark, capsys, tmp_path, monkeypatch):
    """ms per tiny point through the dispatcher, kernel vs the rest."""
    kernel_s = []
    call = frames_native.Kernel.__call__

    def timed_kernel(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return call(self, *args, **kwargs)
        finally:
            kernel_s[-1] += time.perf_counter() - t0

    monkeypatch.setattr(frames_native.Kernel, "__call__", timed_kernel)
    seeds = iter(range(1000, 2000))

    def drain():
        seed = next(seeds)
        kernel_s.append(0.0)
        store = CampaignStore(tmp_path / f"tiny-{seed}.jsonl")
        dispatcher = Dispatcher(store, slice_shots=512)
        t0 = time.perf_counter()
        receipt = dispatcher.submit(dict(TINY_SPEC, root_seed=seed))
        while True:
            leases = dispatcher.lease(runner="bench", max_leases=8)
            if not leases:
                break
            for lease in leases:
                payload = execute_lease_wire(lease.to_wire())
                dispatcher.complete(payload["lease"], payload["chunks"],
                                    runner="bench", key=payload["key"])
        wall = time.perf_counter() - t0
        store.close()
        rows = dispatcher.job_status(receipt["job"])["results"]
        return wall, kernel_s[-1], rows

    drain()  # compile the structures and build the graphs once
    runs = []
    best_of(benchmark, lambda: runs.append(drain()), 5)
    wall, kernel, rows = min(runs, key=lambda run: run[0])
    assert len(rows) == TINY_POINTS
    assert all(row["shots"] == 512 for row in rows)

    point_ms = wall / TINY_POINTS * 1e3
    kernel_ms = kernel / TINY_POINTS * 1e3
    rest_ms = point_ms - kernel_ms
    bench_report(
        benchmark, capsys,
        f"\n[service] {TINY_POINTS} tiny points x 512 shots via "
        f"dispatcher: {point_ms:.2f} ms/point = kernel {kernel_ms:.2f} "
        f"+ rest {rest_ms:.2f}",
        points=TINY_POINTS, point_ms=point_ms, kernel_ms=kernel_ms,
        rest_ms=rest_ms)

    bar = bench_bar(2.5, 5.0)
    assert rest_ms < bar, \
        f"tiny point costs {rest_ms:.2f} ms outside the kernel >= {bar} ms"


def test_head_overhead(benchmark, capsys, tmp_path):
    """Wall of the tiny points through the service head over the wall
    of the same points through ``Campaign.run(workers=1)``."""
    seeds = iter(range(3000, 4000))
    build_sweep(dict(TINY_SPEC, root_seed=next(seeds))).run(workers=1)
    svc = CampaignService(str(tmp_path / "head.jsonl"), port=0, workers=1)
    client = ServiceClient(svc.start_background())

    def served(seed):
        t0 = time.perf_counter()
        status = client.wait(
            client.submit(dict(TINY_SPEC, root_seed=seed))["job"])
        wall = time.perf_counter() - t0
        return wall, [(r["shots"], r["errors"]) for r in status["results"]]

    def direct(seed):
        t0 = time.perf_counter()
        results = build_sweep(dict(TINY_SPEC, root_seed=seed)).run(
            workers=1)
        wall = time.perf_counter() - t0
        return wall, [(r.shots, r.errors) for r in results]

    head, engine = [], []
    try:
        for _ in range(REPEATS):
            # Each side on seeds of its own: a point run once keeps its
            # task context warm for the next run of it.
            seed = next(seeds)
            wall, rows = served(seed)
            head.append(wall)
            engine.append(direct(next(seeds))[0])
        assert len(rows) == TINY_POINTS
        assert rows == direct(seed)[1], "the head moved a count"
        benchmark.pedantic(lambda: served(next(seeds)), rounds=1,
                           iterations=1)
    finally:
        svc.stop_background()

    head_s, engine_s = min(head), min(engine)
    ratio = head_s / engine_s
    bench_report(
        benchmark, capsys,
        f"\n[service] {TINY_POINTS} tiny points x 512 shots: head "
        f"{head_s * 1e3:.1f} ms, Campaign.run {engine_s * 1e3:.1f} ms, "
        f"overhead ratio {ratio:.2f}",
        points=TINY_POINTS, head_s=head_s, engine_s=engine_s,
        overhead_ratio=ratio)

    # Measured on a 2-core host: 1.49-1.57 with the slot's pipeline,
    # 1.89 with one lease in flight at a time.
    bar = bench_bar(1.75, 2.5)
    assert ratio < bar, \
        f"head overhead ratio {ratio:.2f} >= {bar} on tiny points"
