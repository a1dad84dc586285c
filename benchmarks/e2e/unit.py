"""One measured run of one workload, in a fresh process.

The measuring parent (``run.py``) starts this file as a subprocess for
every repetition: a fresh interpreter is what a ``repro campaign`` /
``repro submit`` user pays — the engine's ``lru_cache``s and every
decoder's ``DecodeCache`` start cold, where an in-process repeat would
be many times faster and measure nothing.

The process prints exactly one JSON object on its last stdout line:
timings (``setup_s`` from the parent's spawn timestamp to the entry
call, ``wall_s`` around the entry call with the store flushed), the
per-point ``(key, shots, errors)`` rows, the output-check failures,
the cached-phase latencies, registry counters, and — with
``--trace-out`` — the layer table of the in-memory tracer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import workloads  # noqa: E402  (sibling module, path set above)


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its reaped children (KiB on
    Linux), whichever is larger."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _check_rows(name, size, tasks, rows):
    """Seed-independent output invariants; returns failure strings.

    ``rows`` are ``(key, shots, errors)`` in task order; of ``tasks``
    only the shot budgets are read.
    """
    from repro.injection.results import wilson_interval

    failures = []
    if len(rows) != len(tasks):
        return [f"{len(rows)} result rows for {len(tasks)} points"]
    adaptive = workloads.adaptive_knobs(name, size)
    for i, (task, (_, shots, errors)) in enumerate(zip(tasks, rows)):
        if not 0 <= errors <= shots:
            failures.append(f"point {i}: {errors} errors in {shots} shots")
        elif adaptive is None:
            if shots != task.shots:
                failures.append(f"point {i}: ran {shots} of "
                                f"{task.shots} shots")
        else:
            rel, ceiling = adaptive
            lo, hi = wilson_interval(errors, shots)
            rate = errors / shots if shots else 0.0
            if shots > ceiling or not shots:
                failures.append(f"point {i}: {shots} shots vs ceiling "
                                f"{ceiling}")
            elif shots < ceiling and (hi - lo) / 2.0 > rel * rate:
                failures.append(
                    f"point {i}: stopped at rel. half-width "
                    f"{(hi - lo) / 2.0 / rate:.4f} > {rel}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="default",
                        choices=("default", "smoke"))
    parser.add_argument("--workdir", required=True,
                        help="existing directory for the store file")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.perf_counter() at spawn")
    parser.add_argument("--trace-out", default=None,
                        help="trace this run (on one worker: forked "
                             "workers cannot ship spans back); write "
                             "the spans here at exit")
    parser.add_argument("--serial", action="store_true",
                        help="one worker, untraced: what the traced run's "
                             "overhead is measured against")
    args = parser.parse_args(argv)
    name, size = args.workload, args.size
    traced = args.trace_out is not None

    # ---- set-up (everything a user pays before the entry call) -------
    tracer = None
    if traced:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    from repro import obs
    from repro.injection.adaptive import AdaptivePolicy
    from repro.injection.campaign import Campaign
    from repro.injection.store import CampaignStore, task_key
    from repro.injection.sweep import build_sweep

    spec_list = workloads.specs(name, args.seed, size)
    tasks = [t for spec in spec_list for t in build_sweep(spec).tasks]
    campaign = Campaign(tasks, root_seed=args.seed)
    store_path = os.path.join(args.workdir, f"{name}.jsonl")
    store = CampaignStore(store_path)
    adaptive = workloads.adaptive_knobs(name, size)
    policy = None
    if adaptive is not None:
        policy = AdaptivePolicy(rel_halfwidth=adaptive[0], min_errors=20,
                                max_shots=adaptive[1])
    workers = 1 if traced or args.serial \
        else min(workloads.WORKERS[name], _cpus())
    service = client = None
    if workloads.ENTRY[name] == "service":
        from repro.service import CampaignService, ServiceClient

        service = CampaignService(store, port=0, workers=1)
        client = ServiceClient(service.start_background())

    out = {"workload": name, "seed": args.seed, "size": size,
           "traced": traced, "serial": args.serial, "workers": workers,
           "points": len(tasks)}
    failures = []
    try:
        # ---- the measured entry call ---------------------------------
        t_entry = time.perf_counter()
        out["setup_s"] = t_entry - args.spawned_at
        if tracer is not None:
            tracer.begin_run()
        if client is not None:
            t0 = time.perf_counter()
            receipt = client.submit(spec_list[0])
            out["submit_ms"] = (time.perf_counter() - t0) * 1e3
            final = client.wait(receipt["job"])
            rows = [(r["key"], int(r["shots"]), int(r["errors"]))
                    for r in final.get("results", ())]
        else:
            results = campaign.run(workers=workers, resume=store,
                                   adaptive=policy)
            store.close()
            rows = [(task_key(r.task), r.shots, r.errors)
                    for r in results]
            out["busy_s"] = sum(r.elapsed_s for r in results)
        out["wall_s"] = time.perf_counter() - t_entry
        if tracer is not None:
            tracer.end_run()
        out["shots"] = sum(r[1] for r in rows)
        out["rows"] = rows
        failures += _check_rows(name, size, tasks, rows)
        counters = dict(obs.registry().snapshot()["counters"])

        # ---- cached phase: resubmit the finished spec ----------------
        latencies = []
        for _ in range(workloads.CACHED_REPEATS[size]
                       if client is not None else 0):
            t0 = time.perf_counter()
            again = client.submit(spec_list[0])
            status = client.wait(again["job"])
            latencies.append((time.perf_counter() - t0) * 1e3)
            cached = [(r["key"], int(r["shots"]), int(r["errors"]))
                      for r in status.get("results", ())]
            if cached != rows:
                failures.append("cached results differ from fresh")
            if again.get("fresh") or again.get("coalesced"):
                failures.append(
                    f"resubmit simulated: fresh={again.get('fresh')} "
                    f"coalesced={again.get('coalesced')}")
        after = obs.registry().snapshot()["counters"]
        if after.get("engine.shots", 0) != counters.get("engine.shots", 0):
            failures.append("cached phase simulated shots")
        out["cached_ms"] = latencies

        # ---- the store on disk holds what was returned ---------------
        if client is not None:
            snap = client.metrics()
            out["status_bytes"] = len(json.dumps(final, sort_keys=True,
                                                 default=str)) + 1
            hists = snap.get("histograms", {})
            out["service"] = {
                "leases": int(snap["counters"].get("service.leases", 0)),
                "lease_queue_s": sum(
                    h["sum"] for k, h in hists.items()
                    if k.startswith("service.lease_queue_s")),
                "lease_run_s": sum(
                    h["sum"] for k, h in hists.items()
                    if k.startswith("service.lease_run_s")),
            }
            service.stop_background()
            service = None
        t0 = time.perf_counter()
        reopened = CampaignStore(store_path)
        banked = [reopened.done_record(key) or {} for key, _, _ in rows]
        out["store_reopen_s"] = time.perf_counter() - t0
        reopened.close()
        on_disk = [(key, rec.get("shots"), rec.get("errors"))
                   for (key, _, _), rec in zip(rows, banked)]
        if on_disk != rows:
            failures.append("reopened store differs from returned rows")
        out["store_bytes"] = os.path.getsize(store_path)
        out["counters"] = {k: v for k, v in counters.items() if v}
    finally:
        if service is not None:
            service.stop_background()
    out["failures"] = failures
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        out["missing"] = tracer.missing
        out["layers"] = tracer.layer_table(out["wall_s"])
        out["matcher_us"] = tracer.matcher_replay()
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
