"""Command-line entry point: figures and campaign sweeps.

Usage::

    python -m repro fig3            # temporal decay series
    python -m repro fig5 --shots 500
    python -m repro headline        # all observation checks (long)
    repro fig6 --workers 8 --csv out.csv   # -j 8: scheduler workers
    repro fig5 --store fig5.jsonl   # checkpoint / resume the sweep
    repro campaign spec.json --store sweep.jsonl --adaptive 0.2
    repro campaign spec.json -j 1   # same scheduler loop, in-process
    repro fig6 --backend tableau    # pin the batched-tableau backend
    repro store merge all.jsonl hostA.jsonl hostB.jsonl
    repro store lookup sweep.jsonl --key 860e    # cached counts by key
    repro serve --store shared.jsonl --port 8765 # campaign service
    repro serve --runner http://head:8765        # pull-based worker
    repro submit spec.json --wait                # submit to the service
    repro status job-1                           # poll a service job

``repro campaign`` runs an arbitrary sweep described by a JSON spec
(codes × architectures × faults × noise levels — see
:mod:`repro.injection.sweep`) through the orchestration engine, with
JSONL checkpointing (``--store``, resumable by re-running the same
command) and adaptive shot allocation (``--adaptive REL``).

``repro serve`` exposes the same engine as a JSON-over-HTTP service
(:mod:`repro.service`): sweep submissions are canonicalised to task
keys, answered from the shared store on cache hit, coalesced onto
in-flight work when identical, and simulated only on miss.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from .analysis.report import ascii_table, percent, to_csv


def _write(rows, title: str, csv: Optional[str] = None) -> None:
    print(ascii_table(rows, title=title))
    if csv:
        with open(csv, "w", encoding="utf-8") as fh:
            fh.write(to_csv(rows))
        print(f"\n[csv written to {csv}]")


def _sibling_csv(path: str, suffix: str) -> str:
    """``out.csv`` → ``out.<suffix>.csv`` for a command's extra table."""
    stem, ext = os.path.splitext(path)
    return f"{stem}.{suffix}{ext}" if ext else f"{path}.{suffix}"


#: Default adaptive floor; kept in one place so _policy can tell an
#: explicit --min-shots from the untouched default.
DEFAULT_MIN_SHOTS = 512


def _policy(args):
    """Build the adaptive policy requested on the command line."""
    from .injection.adaptive import AdaptivePolicy

    if args.adaptive is None:
        if args.max_shots is not None \
                or args.min_shots != DEFAULT_MIN_SHOTS:
            sys.exit("error: --min-shots/--max-shots only apply to "
                     "adaptive runs; pass --adaptive REL as well")
        return None
    return AdaptivePolicy(rel_halfwidth=args.adaptive,
                          min_shots=args.min_shots,
                          max_shots=args.max_shots)


def _engine_kwargs(args) -> dict:
    """The engine flags as :meth:`Campaign.run
    <repro.injection.Campaign.run>` keywords."""
    return {
        "resume": args.store,
        "adaptive": _policy(args),
        "chunk_shots": args.chunk_shots,
        "workers": args.workers,
    }


def _override(campaign, **fields):
    """``campaign`` with every task's ``fields`` set to the values given
    on the command line (``None``: keep each task's own).  Each field is
    part of the task key, so the override lands before anything counts
    or runs a task."""
    from .injection import Campaign

    fields = {k: v for k, v in fields.items() if v is not None}
    return Campaign([dataclasses.replace(t, **fields) for t in campaign.tasks],
                    root_seed=campaign.root_seed, workers=campaign.workers)


def cmd_fig3(args) -> None:
    from .experiments import fig3_temporal

    _write(fig3_temporal.sample_table(),
           "Fig. 3 — sampled injection probabilities (gamma=10, ns=10)",
           args.csv)
    print()
    # The ablation is a second table: give it a sibling CSV path rather
    # than clobbering the main one (or dropping it, as this once did).
    _write(fig3_temporal.sampling_ablation(),
           "n_s ablation — step-function approximation error",
           args.csv and _sibling_csv(args.csv, "ablation"))


def cmd_fig4(args) -> None:
    from .experiments import fig4_spatial

    data = fig4_spatial.run()
    _write(data.radial_profile(),
           "Fig. 4 — spatial damping S(d) radial profile (n=1)", args.csv)


def cmd_figure(args) -> None:
    """``repro fig5`` ... ``fig8`` and ``headline``: run the figure's
    campaign once (headline's spans Figs. 5-8), analyse it, print."""
    from .experiments import FIGURES

    figure = FIGURES[args.command]
    extra = ({"deep": args.deep, "deep_p": args.deep_p}
             if args.command == "fig6" else {})
    campaign = _override(figure.build_campaign(shots=args.shots, **extra),
                         backend=args.backend)
    report = figure.report(figure.analyze(
        campaign.run(**_engine_kwargs(args))))
    print(report.head)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(to_csv(report.rows))
        print(report.note.format(args.csv))
    if report.tail:
        print(report.tail)


def cmd_detect(args) -> None:
    from .experiments import fig_detect

    roc = fig_detect.roc_series(
        shots=args.shots, distance=args.distance, rounds=args.rounds,
        strike_round=args.strike_round)
    campaign = _override(fig_detect.build_campaign(
        shots=args.shots, distance=args.distance, rounds=args.rounds,
        strike_round=args.strike_round, intensity=args.intensity,
        decoder=args.decoder), backend=args.backend)
    policies = fig_detect.analyze(campaign.run(**_engine_kwargs(args)))
    _write([p.to_row() for p in roc],
           "Detection — ROC / latency / localisation vs strike intensity",
           args.csv)
    print()
    _write(policies,
           f"Recovery policies — d={args.distance} rotated code, "
           f"strike at round {args.strike_round} "
           f"(intensity {args.intensity:g}, paired seeds)",
           args.csv and _sibling_csv(args.csv, "policies"))


def _load_spec(path: str, shots: Optional[int] = None):
    """Read the sweep spec at ``path`` — with ``--shots`` folded in —
    and expand it: ``(spec, campaign)``.  The one reader of spec files;
    a missing file, bad JSON or a spec :func:`build_sweep` rejects
    exits with ``error: ...``."""
    from .injection.sweep import build_sweep

    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        sys.exit(f"error: cannot read sweep spec {path}: {exc.strerror}")
    except ValueError as exc:
        sys.exit(f"error: sweep spec {path} is not valid JSON: {exc}")
    if not isinstance(spec, dict):
        sys.exit(f"error: sweep spec {path} is not a JSON object")
    if shots is not None:
        spec["shots"] = shots
    try:
        return spec, build_sweep(spec)
    except (KeyError, TypeError, ValueError) as exc:
        sys.exit(f"error: bad sweep spec {path}: {exc}")


def cmd_campaign(args) -> None:
    from .injection.store import CampaignStore
    from .parallel import default_workers

    campaign = _override(_load_spec(args.spec, args.shots)[1],
                         backend=args.backend, recovery=args.recovery,
                         sampler=args.sampler, decoder=args.decoder)
    policy = _policy(args)
    store = CampaignStore(args.store) if args.store else None
    workers = args.workers
    if workers is None:
        workers = default_workers(campaign.workers)
    banked = campaign.banked(store, adaptive=policy)
    print(f"campaign: {len(campaign)} points, {workers} worker(s)"
          + (f" ({banked} already complete in {args.store})"
             if store is not None else ""))
    try:
        results = campaign.run(workers=workers,
                               chunk_shots=args.chunk_shots,
                               adaptive=policy, resume=store)
    except ValueError as exc:
        if "frame backend" not in str(exc):
            raise
        # --sampler split on a point that resolved to the tableau
        # backend: a spec error, reported like the other CLI misuses.
        sys.exit(f"error: {exc}")
    _write(results.to_rows(), f"Campaign — {args.spec}", args.csv)
    ceiling = sum(policy.ceiling(t.shots) if policy else t.shots
                  for t in campaign.tasks)
    spent = results.total_shots()
    line = f"{len(results)} points, {spent} shots"
    if policy is not None and 0 < spent <= ceiling:
        line += (f" of {ceiling} ceiling "
                 f"({percent(1 - spent / ceiling)} saved by early stopping)")
    elif policy is not None:
        # banked results from an earlier (bigger-budget) run exceed
        # this policy's ceiling — extra precision, nothing "saved"
        line += f" (exceeds the {ceiling}-shot ceiling via banked results)"
    print(line)


def cmd_rare(args) -> None:
    """Auto-tilt pilot diagnostics + a tilted deep-tail estimate."""
    from .injection.adaptive import AdaptivePolicy
    from .injection.campaign import run_task
    from .injection.spec import CodeSpec, InjectionTask
    from .rare.pilot import pilot_report
    from .rare.sampler import SamplerSpec
    from .rare.stats import mc_required_shots, variance_reduction_factor

    try:
        sampler = SamplerSpec(kind="tilt", tilt=args.tilt or 0.0,
                              target_rel=args.target_rel,
                              pilot_shots=args.pilot_shots)
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    task = InjectionTask(
        code=CodeSpec("xxzz", (args.distance, args.distance)),
        intrinsic_p=args.p, rounds=args.rounds, decoder=args.decoder,
        readout=args.readout, backend=args.backend or "auto",
        sampler=sampler, shots=args.shots, seed=args.seed)
    rows = pilot_report(task)
    _write(rows,
           f"Rare-event pilot — d={args.distance} rotated code, "
           f"p={args.p:g}, {args.readout} readout "
           f"(target ±{args.target_rel:.0%} relative CI)", args.csv)
    if args.pilot_only:
        return
    if sampler.auto_tilt:
        # Pin the rung the pilot just chose: the auto resolver would
        # deterministically re-run the identical ladder otherwise.
        chosen = next(float(r["tilt"]) for r in rows if r["chosen"])
        task = dataclasses.replace(
            task, sampler=dataclasses.replace(sampler,
                                              tilt=max(1.0, chosen)))
    policy = AdaptivePolicy(rel_halfwidth=args.target_rel,
                            min_shots=args.min_shots)
    result = run_task(task, adaptive=policy)
    stats = result.weight_stats
    lo, hi = result.confidence_interval
    # Both figures from the same (self-normalized) estimator, so
    # mc_shots / vrf is the tilted estimator's own shot requirement.
    vrf = variance_reduction_factor(stats, args.target_rel, mode="sn")
    mc_shots = mc_required_shots(result.logical_error_rate,
                                 args.target_rel)
    print()
    print(f"tilted estimate: LER = {result.logical_error_rate:.3g} "
          f"[{lo:.3g}, {hi:.3g}]  "
          f"({result.errors} failures / {result.shots} shots, "
          f"ESS {stats.ess:,.0f})")
    if result.logical_error_rate > 0:
        print(f"variance reduction vs plain MC: {vrf:,.1f}x "
              f"(plain MC would need ~{mc_shots:,.0f} shots for the "
              f"same target)")


def cmd_serve(args) -> None:
    if args.runner:
        from .service.runner import run_runner

        try:
            done = run_runner(args.runner, runner_id=args.runner_id,
                              poll_s=args.poll,
                              idle_timeout_s=args.idle_timeout,
                              max_slices=args.max_slices)
        except Exception as exc:  # noqa: BLE001 — CLI boundary
            sys.exit(f"error: {exc}")
        print(f"runner finished: {done} slice(s) completed")
        return
    if not args.store:
        sys.exit("error: repro serve needs --store PATH "
                 "(or --runner URL for worker mode)")
    import asyncio
    import signal

    from .service.server import CampaignService

    svc = CampaignService(args.store, host=args.host, port=args.port,
                          workers=args.serve_workers,
                          slice_shots=args.slice_shots,
                          lease_ttl_s=args.lease_ttl,
                          telemetry=args.service_telemetry)

    async def _serve() -> None:
        await svc.start()
        print(f"serving campaigns at {svc.url} "
              f"(store {svc.store.path}, "
              f"{svc.workers} local worker(s))", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover — non-POSIX
                pass
        await stop.wait()
        print("shutting down (draining local slices)...", flush=True)
        await svc.stop()

    asyncio.run(_serve())


def _follow_job(client, job: str, timeout_s: float):
    """Stream one job to completion with a live progress line on a
    TTY (silent progress otherwise)."""
    from .obs.sinks import ProgressRenderer, job_progress_line

    renderer = ProgressRenderer() if ProgressRenderer.wants_tty() \
        else None

    def on_progress(status):
        if renderer is not None:
            renderer.render(job_progress_line(status))

    try:
        return client.wait(job, timeout_s=timeout_s,
                           on_progress=on_progress)
    finally:
        if renderer is not None:
            renderer.clear()


def cmd_submit(args) -> None:
    from .service.client import ServiceClient, ServiceError

    spec, _ = _load_spec(args.spec, args.shots)
    client = ServiceClient(args.url, timeout_s=args.timeout)
    try:
        receipt = client.submit(spec)
        print(f"{receipt['job']}: {receipt['points']} point(s) — "
              f"{receipt['cache_hits']} cached, "
              f"{receipt['coalesced']} coalesced, "
              f"{receipt['fresh']} fresh [{receipt['state']}]")
        if not args.wait:
            if receipt["state"] != "done":
                print(f"poll with: repro status {receipt['job']} "
                      f"--url {args.url}")
                return
            status = client.status(receipt["job"])
        else:
            # The server holds the response open and pushes progress.
            status = _follow_job(client, receipt["job"],
                                 args.wait_timeout)
    except ServiceError as exc:
        sys.exit(f"error: {exc}")
    rows = status.get("results", [])
    if rows:
        _write(rows, f"Service results — {receipt['job']}", args.csv)


def _watch_status(args, client) -> None:
    """``repro status --watch``: live-refresh on a TTY via the PR 7
    single-line renderer; one plain line per refresh otherwise."""
    import time as _time

    from .obs.sinks import ProgressRenderer, job_progress_line
    from .service.client import ServiceError

    renderer = ProgressRenderer() if ProgressRenderer.wants_tty() \
        else None

    def show(line: str) -> None:
        if renderer is not None:
            renderer.render(line)
        else:
            print(line, flush=True)

    try:
        if args.job is not None:
            # Jobs finish: follow the streaming endpoint to the final
            # record, then print the result table.
            for status in client.stream(args.job,
                                        interval_s=args.interval):
                if "error" in status:
                    sys.exit(f"error: {status['error']}")
                show(job_progress_line(status))
                if status.get("final") \
                        or status.get("state") == "done":
                    if renderer is not None:
                        renderer.clear()
                    _print_job_status(status)
                    return
            if renderer is not None:
                renderer.clear()
            return
        while True:  # service overview: watch until interrupted
            overview = client.status()
            counters = overview.get("counters", {})
            show(f"jobs {overview.get('jobs_running', 0)} running / "
                 f"{overview.get('jobs', 0)} total, "
                 f"{overview.get('points_inflight', 0)} point(s) in "
                 f"flight, {overview.get('slices_pending', 0)} "
                 f"slice(s) queued, {overview.get('leases_outstanding', 0)} "
                 f"lease(s) out, {counters.get('slices_completed', 0)} "
                 f"slice(s) done")
            _time.sleep(args.interval)
    except ServiceError as exc:
        if renderer is not None:
            renderer.clear()
        sys.exit(f"error: {exc}")
    except KeyboardInterrupt:
        if renderer is not None:
            renderer.clear()


def _print_job_status(status) -> None:
    print(f"{status['job']}: {status['state']} — "
          f"{status['points_done']}/{status['points']} point(s), "
          f"{status['shots_done']}/{status['shots_target']} shots "
          f"({status['cache_hits']} cached, {status['coalesced']} "
          f"coalesced, {status['fresh']} fresh)")
    tasks = status.get("tasks", [])
    if tasks:
        print()
        print(ascii_table(tasks, columns=[
            "label", "status", "shots", "target", "errors", "ler"]))


def cmd_status(args) -> None:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout_s=args.timeout)
    if args.watch:
        _watch_status(args, client)
        return
    try:
        status = client.status(args.job)
    except ServiceError as exc:
        sys.exit(f"error: {exc}")
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True, default=str))
        return
    if args.job is None:
        counters = status.pop("counters", {})
        for key in ("jobs", "jobs_running", "points_inflight",
                    "slices_pending", "leases_outstanding", "store",
                    "store_done"):
            print(f"{key:>20}: {status.get(key)}")
        print(f"{'jobs seen':>20}: "
              f"{', '.join(status.get('job_ids', [])) or '-'}")
        line = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        print(f"{'service counters':>20}: {line}")
        return
    _print_job_status(status)


def cmd_store(args) -> None:
    from .injection.store import CampaignStore

    if args.store_command == "merge":
        stats = CampaignStore.merge(args.out, args.inputs)
        if not args.quiet:
            duplicates = stats["duplicate_done"] + stats["duplicate_chunks"]
            print(f"merged {stats['inputs']} store(s) into {args.out}: "
                  f"{stats['done']} completed points, "
                  f"{stats['chunks']} chunks")
            print(f"  shards read:        "
                  f"{stats['inputs'] - stats['skipped_inputs']} of "
                  f"{stats['inputs']}"
                  + (f" ({stats['skipped_inputs']} unusable, skipped)"
                     if stats["skipped_inputs"] else ""))
            print(f"  records kept:       "
                  f"{stats['done'] + stats['chunks']} "
                  f"({stats['done']} done, {stats['chunks']} chunk)")
            print(f"  duplicates dropped: {duplicates} "
                  f"({stats['duplicate_done']} done, "
                  f"{stats['duplicate_chunks']} chunk)")
            print(f"  malformed skipped:  {stats['malformed_records']}")
        conflicts = stats["conflicting_chunks"] + stats["conflicting_done"]
        if conflicts:
            print(f"warning: {conflicts} duplicate record(s) disagreed "
                  f"on counts — shards may come from different code "
                  f"versions; investigate before trusting the merge")
        return

    if not os.path.exists(args.path):
        sys.exit(f"error: no store at {args.path}")
    store = CampaignStore(args.path)

    if args.store_command == "stats":
        s = store.stats()
        print(f"store {s['path']}:")
        for key in ("keys", "done", "partial", "chunk_records",
                    "done_shots", "done_errors"):
            print(f"  {key:>14}: {s[key]:,}" if isinstance(s[key], int)
                  else f"  {key:>14}: {s[key]}")
        return

    if args.store_command == "lookup":
        if (args.spec is None) == (args.key is None):
            sys.exit("error: lookup needs exactly one of --spec FILE "
                     "or --key PREFIX")
        if args.spec is not None:
            rows = [store.lookup(t)
                    for t in _load_spec(args.spec)[1]._seeded()]
            columns = ["label", "key", "status", "shots",
                       "target_shots", "errors", "ler", "ler_lo",
                       "ler_hi"]
        else:
            rows = [store.key_stats(k)
                    for k in store.find_keys(args.key)]
            if not rows:
                print(f"no keys matching {args.key!r} in {args.path}")
                return
            columns = ["key", "status", "label", "shots", "errors",
                       "chunk_records", "ler", "ler_lo", "ler_hi"]
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True,
                             default=str))
            return
        print(ascii_table(rows, columns=columns,
                          title=f"Store lookup — {args.path}"))
        hits = sum(1 for r in rows if r.get("status") == "done")
        print(f"\n{hits}/{len(rows)} point(s) fully cached")


def cmd_fleet(args) -> None:
    from .service.fleet import fleet_overview, render_fleet

    overview = fleet_overview(args.urls, timeout_s=args.timeout)
    if args.json:
        print(json.dumps(overview, indent=2, sort_keys=True,
                         default=str))
    else:
        print(render_fleet(overview, top_spans=args.top_spans))
    if not overview["aggregate"]["heads_up"]:
        sys.exit(1)


def cmd_report(args) -> None:
    from .obs.report import render_report

    files = args.file
    print(render_report(files[0] if len(files) == 1 else files))


def _perf_record(args) -> None:
    from .obs import prof

    cmd = list(args.cmd)
    if cmd and cmd[0] == "--":
        cmd = cmd[1:]
    if not cmd:
        sys.exit("perf record: missing wrapped command "
                 "(usage: repro perf record [--flame PATH] -- CMD ...)")
    if cmd[0] == "perf":
        sys.exit("perf record: cannot wrap perf itself")
    sub = build_parser().parse_args(cmd)
    with prof.profile() as profiler:
        telemetry = _run(sub)
    snap = profiler.snapshot()
    # Artifacts land before the stdout render: a closed pager must not
    # cost the run its flamegraph.
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
    if args.flame:
        with open(args.flame, "w", encoding="utf-8") as fh:
            fh.write("\n".join(profiler.flame_lines()) + "\n")
    print()
    print(prof.render_profile(snap, top=args.top))
    if args.json:
        print(f"[profile written to {args.json}]")
    if args.flame:
        print(f"[flamegraph stacks written to {args.flame}]")
    if telemetry:
        print(f"[telemetry written to {telemetry}]")


def _perf_ingest(args) -> None:
    from .obs import bench

    with open(args.bench_json, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    history = args.history or bench.DEFAULT_HISTORY
    stats = bench.ingest(payload, history,
                         source=os.path.basename(args.bench_json))
    print(f"{history}: {stats['added']} point(s) added, "
          f"{stats['updated']} updated")


def _perf_trend(args) -> None:
    from .obs import bench

    history_path = args.history or bench.DEFAULT_HISTORY
    rows = bench.trend_rows(bench.load_history(history_path),
                            bench=args.bench)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return
    if not rows:
        print(f"{history_path}: no history points")
        return
    print(f"bench trend — {history_path}")
    print(bench.render_trend(rows))


def _perf_check(args) -> None:
    from .obs import bench

    history_path = args.history or bench.DEFAULT_HISTORY
    history = bench.load_history(history_path)
    current = None
    if args.bench_json:
        with open(args.bench_json, "r", encoding="utf-8") as fh:
            current = bench.payload_records(json.load(fh))
    rel_tol = args.rel_tol
    if rel_tol is None:
        rel_tol = bench.rel_tol_default(lax=True if args.lax else None)
    results = bench.check(history, current, rel_tol=rel_tol,
                          mad_k=args.mad_k,
                          min_history=args.min_history)
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    elif not results:
        print(f"{history_path}: nothing to check")
    else:
        print(f"bench check — {history_path} "
              f"(rel_tol {rel_tol:.0%}, mad_k {args.mad_k:g})")
        print(bench.render_check(results))
    if any(r["status"] == "regression" for r in results) \
            and not args.warn_only:
        sys.exit(1)


def cmd_perf(args) -> None:
    {"record": _perf_record, "ingest": _perf_ingest,
     "trend": _perf_trend, "check": _perf_check}[args.perf_command](args)


COMMANDS = {
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "fig5": cmd_figure,
    "fig6": cmd_figure,
    "fig7": cmd_figure,
    "fig8": cmd_figure,
    "headline": cmd_figure,
    "detect": cmd_detect,
    "campaign": cmd_campaign,
    "rare": cmd_rare,
    "store": cmd_store,
    "report": cmd_report,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "fleet": cmd_fleet,
    "perf": cmd_perf,
}


def _add_engine_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-j", "--workers", type=int, default=None,
                     metavar="N",
                     help="worker processes for the repro.parallel "
                          "scheduler (default: the sweep spec's "
                          "'workers' key where there is one, else "
                          "REPRO_WORKERS, else all cores; 1 runs the "
                          "same loop in-process; counts and adaptive "
                          "stop shots are bit-identical for any "
                          "worker count)")
    sub.add_argument("--store", type=str, default=None,
                     help="JSONL checkpoint file; re-running with the "
                          "same store resumes instead of restarting")
    sub.add_argument("--adaptive", type=float, default=None, metavar="REL",
                     help="adaptive shot allocation: stop each point "
                          "once its Wilson half-width is REL x its rate")
    sub.add_argument("--min-shots", type=int, default=DEFAULT_MIN_SHOTS,
                     help="adaptive floor before a point may stop")
    sub.add_argument("--max-shots", type=int, default=None,
                     help="adaptive ceiling (default: the task's shots)")
    sub.add_argument("--chunk-shots", type=int, default=None,
                     help="streaming chunk size (checkpoint granularity)")
    sub.add_argument("--telemetry", type=str, default=None, metavar="PATH",
                     help="append schema-versioned telemetry snapshots "
                          "(JSONL) here while the run progresses; "
                          "render afterwards with 'repro report PATH'")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress the live progress line (telemetry "
                          "export, if requested, still runs)")
    _add_backend_option(sub)


def _add_backend_option(sub: argparse.ArgumentParser) -> None:
    from .noise.executor import BACKENDS

    sub.add_argument("--backend", type=str, default=None,
                     choices=BACKENDS,
                     help="simulation backend: 'frames' = bit-packed "
                          "Pauli-frame sampler (forced; may approximate "
                          "fault resets as reset-to-mixed), 'tableau' = "
                          "batched CHP tableaus, 'auto' (default) = "
                          "frames wherever the lowering is exact, "
                          "tableau elsewhere")


def _spec_type(parse):
    """An argparse ``type`` from a spec parser (``as_decoder``,
    ``as_sampler``: the sweep spec's grammar for the same key): a
    string it rejects is a usage error (exit 2)."""

    def parsed(text: str):
        try:
            return parse(text)
        except (KeyError, ValueError) as exc:
            raise argparse.ArgumentTypeError(exc.args[0]) from None

    return parsed


def _add_decoder_option(sub: argparse.ArgumentParser, default: Optional[str],
                        what: str) -> None:
    from .decoders import as_decoder

    sub.add_argument("--decoder", type=_spec_type(as_decoder), default=default,
                     metavar="KIND[:MODS]",
                     help=f"{what}: 'mwpm' or 'union-find', with optional "
                          "comma-joined mods after a colon — 'hooks' adds "
                          "correlated hook edges to the detector graph, "
                          "'uniform' ignores edge weights, 'nocache' "
                          "disables the syndrome-dedup decode cache "
                          "(e.g. 'union-find:hooks')")


def _add_service_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--url", type=str, default="http://127.0.0.1:8765",
                     help="service base URL")
    sub.add_argument("--timeout", type=float, default=60.0,
                     help="per-request HTTP timeout, seconds")


def _add_history_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--history", type=str, default=None, metavar="PATH",
                     help="history JSONL (default: "
                          "results/bench/history.jsonl)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from the SC'24 surface-codes-"
                    "under-radiation paper, or run custom sweeps.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="command")
    for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                 "headline"):
        sub = subs.add_parser(name, help=f"regenerate {name} data")
        sub.add_argument("--csv", type=str, default=None,
                         help="also write rows to this CSV file")
        if name == "fig6":
            sub.add_argument("--deep", action="store_true",
                             help="extend the distance curves into the "
                                  "deep low-LER tail: one auto-tilted "
                                  "intrinsic-noise baseline point per "
                                  "code (repro.rare importance "
                                  "sampling)")
            sub.add_argument("--deep-p", type=float, default=2e-4,
                             help="intrinsic noise level of the deep "
                                  "baseline points")
        if name not in ("fig3", "fig4"):  # analytic: no campaign to run
            sub.add_argument("--shots", type=int, default=800,
                             help="shots per configuration point")
            _add_engine_options(sub)
    det = subs.add_parser(
        "detect", help="strike-detection ROC + recovery-policy LER "
                       "(streaming CUSUM over packed syndromes)")
    det.add_argument("--shots", type=int, default=1024,
                     help="shots per batch / campaign point")
    det.add_argument("--distance", type=int, default=5,
                     help="rotated-code distance (d, d)")
    det.add_argument("--rounds", type=int, default=10,
                     help="syndrome rounds of the memory experiment")
    det.add_argument("--strike-round", type=int, default=4,
                     help="round the radiation burst lands on")
    det.add_argument("--intensity", type=float, default=1.0,
                     help="strike energy scale for the policy panel "
                          "(1.0 = the paper's full strike)")
    _add_decoder_option(det, "mwpm", "base decoder for the policy panel")
    det.add_argument("--csv", type=str, default=None,
                     help="write the ROC rows here (policy rows go to "
                          "a .policies sibling)")
    _add_engine_options(det)
    camp = subs.add_parser(
        "campaign", help="run a JSON sweep spec through the engine")
    camp.add_argument("spec", type=str,
                      help="path to the sweep spec (JSON)")
    camp.add_argument("--shots", type=int, default=None,
                      help="override the spec's per-point shot budget")
    camp.add_argument("--csv", type=str, default=None,
                      help="also write result rows to this CSV file")
    _add_engine_options(camp)
    from .decoders.spec import RECOVERY_POLICIES

    camp.add_argument("--recovery", type=str, default=None,
                      choices=RECOVERY_POLICIES,
                      help="burst-recovery policy for every point: "
                           "'reweight' = detect strikes per batch and "
                           "decode flagged shots on a model-reweighted "
                           "graph, 'discard_window' = clear flagged "
                           "shots' burst-window detectors, 'static' = "
                           "plain decode (default: the task's own "
                           "setting)")
    from .rare.sampler import as_sampler

    camp.add_argument("--sampler", type=_spec_type(as_sampler), default=None,
                      metavar="KIND[:ARG]",
                      help="rare-event sampling measure for every "
                           "point: 'tilt' = importance-sample boosted "
                           "intrinsic noise with per-shot likelihood "
                           "weights ('tilt:8' pins the tilt factor, "
                           "plain 'tilt' picks it by a pilot run), "
                           "'split' = multilevel splitting over frame "
                           "batches ('split:3' sets the levels), 'mc' = "
                           "plain Monte Carlo (default: the task's own "
                           "setting)")
    _add_decoder_option(camp, None, "decoder for every point (default: "
                                    "the task's own setting)")
    rare = subs.add_parser(
        "rare", help="rare-event pilot diagnostics + a tilted "
                     "deep-tail LER estimate (repro.rare)")
    rare.add_argument("--distance", type=int, default=5,
                      help="rotated-code distance (d, d)")
    rare.add_argument("--p", type=float, default=2e-4,
                      help="intrinsic depolarizing noise level")
    rare.add_argument("--rounds", type=int, default=2,
                      help="syndrome rounds of the memory experiment")
    _add_decoder_option(rare, "mwpm", "decoder for the estimate")
    rare.add_argument("--readout", type=str, default="data",
                      choices=("ancilla", "data"),
                      help="readout mode (the deep tail needs 'data': "
                           "the ancilla circuit fails linearly in p)")
    _add_backend_option(rare)
    rare.add_argument("--shots", type=int, default=16384,
                      help="shot ceiling for the tilted estimate")
    rare.add_argument("--min-shots", type=int, default=DEFAULT_MIN_SHOTS,
                      help="adaptive floor before the estimate may stop")
    rare.add_argument("--seed", type=int, default=2024,
                      help="task seed")
    rare.add_argument("--tilt", type=float, default=None,
                      help="pin the tilt instead of auto-selecting")
    rare.add_argument("--target-rel", type=float, default=0.2,
                      help="target relative CI half-width")
    rare.add_argument("--pilot-shots", type=int, default=1024,
                      help="pilot shots per tilt-ladder rung")
    rare.add_argument("--pilot-only", action="store_true",
                      help="print the pilot table and stop")
    rare.add_argument("--csv", type=str, default=None,
                      help="also write the pilot rows to this CSV file")
    store = subs.add_parser(
        "store", help="manage JSONL campaign stores")
    store_subs = store.add_subparsers(dest="store_command", required=True,
                                      metavar="store-command")
    merge = store_subs.add_parser(
        "merge", help="merge sharded per-host stores into one "
                      "resumable store (deduplicating overlaps)")
    merge.add_argument("out", type=str,
                       help="merged store path (an existing file is "
                            "included in the merge and replaced "
                            "atomically)")
    merge.add_argument("inputs", type=str, nargs="+", metavar="in",
                       help="input store shards")
    merge.add_argument("--quiet", action="store_true",
                       help="suppress the compaction summary (conflict "
                            "warnings still print)")
    lookup = store_subs.add_parser(
        "lookup", help="query cached counts / LER / CI by sweep spec "
                       "or key prefix (the service's cache-hit path, "
                       "as a CLI)")
    lookup.add_argument("path", type=str, help="store JSONL file")
    lookup.add_argument("--spec", type=str, default=None,
                        help="sweep spec (JSON file): resolve every "
                             "point to its task key and report cached "
                             "state")
    lookup.add_argument("--key", type=str, default=None,
                        metavar="PREFIX",
                        help="report every key matching this hex "
                             "prefix ('' lists the whole store)")
    lookup.add_argument("--json", action="store_true",
                        help="emit rows as JSON instead of a table")
    sstats = store_subs.add_parser(
        "stats", help="whole-store summary: keys, completed points, "
                      "resumable chunks, banked shots")
    sstats.add_argument("path", type=str, help="store JSONL file")
    serve = subs.add_parser(
        "serve", help="campaign service: HTTP dispatch head over a "
                      "shared store (or --runner URL to pull slices "
                      "for a remote head)")
    serve.add_argument("--store", type=str, default=None,
                       help="shared content-addressed store (system of "
                            "record; created if missing)")
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (0 = ephemeral; default 8765)")
    serve.add_argument("-j", "--workers", dest="serve_workers",
                       type=int, default=1, metavar="N",
                       help="local slice workers: 1 (default) runs "
                            "in-process, N>1 forks N workers (one that "
                            "dies costs only its own slice; all exit "
                            "with the head), 0 serves dispatch only "
                            "(remote runners do the work)")
    serve.add_argument("--slice-shots", type=int, default=None,
                       help="shots per dispatched slice (block-"
                            "aligned; default: the engine's chunk "
                            "size)")
    serve.add_argument("--lease-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="slice lease expiry — a runner silent this "
                            "long is presumed crashed and its slice "
                            "requeued")
    serve.add_argument("--telemetry", dest="service_telemetry",
                       type=str, default=None, metavar="PATH",
                       help="append service telemetry snapshots "
                            "(JSONL) here; render with 'repro report'")
    serve.add_argument("--runner", type=str, default=None,
                       metavar="URL",
                       help="runner mode: pull slice leases from the "
                            "dispatch head at URL instead of serving")
    serve.add_argument("--runner-id", type=str, default=None,
                       help="runner name reported to the head "
                            "(default host-pid)")
    serve.add_argument("--poll", type=float, default=0.5,
                       help="runner idle poll interval, seconds")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="runner exits after this long with no "
                            "work (default: poll forever)")
    serve.add_argument("--max-slices", type=int, default=None,
                       help="runner exits after completing this many "
                            "slices")
    submit = subs.add_parser(
        "submit", help="submit a sweep spec (JSON) to a campaign "
                       "service")
    submit.add_argument("spec", type=str,
                        help="path to the sweep spec (JSON)")
    _add_service_options(submit)
    submit.add_argument("--shots", type=int, default=None,
                        help="override the spec's per-point shot "
                             "budget")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job completes and print "
                             "the result table")
    submit.add_argument("--wait-timeout", type=float, default=3600.0,
                        help="give up waiting after this many seconds")
    submit.add_argument("--csv", type=str, default=None,
                        help="with --wait: also write result rows to "
                             "this CSV file")
    status = subs.add_parser(
        "status", help="query a campaign service (overview, or one "
                       "job's progress and results)")
    status.add_argument("job", type=str, nargs="?", default=None,
                        help="job id (omit for the service overview)")
    _add_service_options(status)
    status.add_argument("--json", action="store_true",
                        help="emit the raw JSON response")
    status.add_argument("--watch", action="store_true",
                        help="live-refresh: stream a job's progress "
                             "(or poll the overview) until done / "
                             "interrupted")
    status.add_argument("--interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="--watch refresh interval (default 0.5)")
    fleet = subs.add_parser(
        "fleet", help="poll several dispatch heads' /status and "
                      "/metrics and render one merged fleet report")
    fleet.add_argument("urls", type=str, nargs="+", metavar="URL",
                       help="dispatch head base URLs")
    fleet.add_argument("--timeout", type=float, default=10.0,
                       help="per-head HTTP timeout, seconds")
    fleet.add_argument("--top-spans", type=int, default=8,
                       help="rows in the slowest-span breakdown")
    fleet.add_argument("--json", action="store_true",
                       help="emit the merged overview as JSON")
    report = subs.add_parser(
        "report", help="render a run summary from telemetry JSONL "
                       "files written via --telemetry (several files "
                       "merge into one offline-fleet summary)")
    report.add_argument("file", type=str, nargs="+",
                        help="telemetry JSONL file(s) to summarise")
    perf = subs.add_parser(
        "perf", help="performance observatory: profile any command, "
                     "keep a bench history, gate perf regressions")
    perf_subs = perf.add_subparsers(dest="perf_command", required=True,
                                    metavar="perf_command")
    record = perf_subs.add_parser(
        "record", help="run a repro command under the deterministic "
                       "profiler (kernel buckets, decode stages, span "
                       "self-times; counts stay bit-identical)")
    record.add_argument("--flame", type=str, default=None, metavar="PATH",
                        help="write collapsed flamegraph stacks (one "
                             "'a;b;c <self-µs>' line per span path, "
                             "flamegraph.pl / speedscope input)")
    record.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="write the raw profile snapshot as JSON")
    record.add_argument("--top", type=int, default=20,
                        help="rows in the span-path self-time table")
    record.add_argument("cmd", nargs=argparse.REMAINDER, metavar="CMD",
                        help="the repro command to profile, e.g. "
                             "'-- campaign spec.json --shots 4096'")
    ingest = perf_subs.add_parser(
        "ingest", help="append a --bench-json payload to the bench "
                       "history, keyed by (git sha, machine "
                       "fingerprint, benchmark)")
    ingest.add_argument("bench_json", type=str,
                        help="payload written by pytest --bench-json")
    _add_history_option(ingest)
    trend = perf_subs.add_parser(
        "trend", help="per-benchmark shots/s series across commits")
    _add_history_option(trend)
    trend.add_argument("--bench", type=str, default=None,
                       help="restrict to one benchmark name")
    trend.add_argument("--json", action="store_true",
                       help="emit the series as JSON")
    check = perf_subs.add_parser(
        "check", help="noise-aware perf-regression gate: current rate "
                      "vs median of same-fingerprint history, MAD-"
                      "scaled band; exits 1 on a confirmed regression")
    check.add_argument("bench_json", type=str, nargs="?", default=None,
                       help="payload to judge (default: the latest "
                            "history point per benchmark)")
    _add_history_option(check)
    check.add_argument("--rel-tol", type=float, default=None,
                       help="relative regression floor (default 0.10, "
                            "0.30 lax)")
    check.add_argument("--mad-k", type=float, default=4.0,
                       help="MAD multiplier for the noise band")
    check.add_argument("--min-history", type=int, default=3,
                       help="baseline points needed before the gate "
                            "arms")
    check.add_argument("--lax", action="store_true",
                       help="force the lax relative floor (otherwise "
                            "REPRO_BENCH_LAX decides)")
    check.add_argument("--warn-only", action="store_true",
                       help="report regressions but always exit 0 "
                            "(CI warm-up mode while history accrues)")
    check.add_argument("--json", action="store_true",
                       help="emit the verdicts as JSON")
    return parser


def _run(args) -> Optional[str]:
    """Run one parsed command inside its telemetry session; returns
    the ``--telemetry`` path, if any."""
    from . import obs

    telemetry = getattr(args, "telemetry", None)
    with obs.session(telemetry=telemetry,
                     quiet=bool(getattr(args, "quiet", False))):
        COMMANDS[args.command](args)
    return telemetry


def main(argv: Optional[List[str]] = None) -> int:
    try:
        telemetry = _run(build_parser().parse_args(argv))
        if telemetry:
            print(f"[telemetry written to {telemetry}]")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader hung up (``repro campaign SPEC | head -1``): end
        # quietly.  Python flushes stdout again at exit, so point it at
        # /dev/null first; exit 1 as an EPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
