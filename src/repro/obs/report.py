"""Render a run summary from telemetry JSONL files (``repro report``).

Works entirely from the exported records: the last ``snapshot`` record
is cumulative, so the report never needs the full stream — but it reads
all records anyway to report the snapshot cadence and tolerate torn
final lines (the exporter may have died mid-write).

Several files render as one merged offline-fleet summary: counters,
spans, events and histograms sum via :func:`~repro.obs.metrics.
merge_snapshots` (each file's last snapshot is cumulative for its
process, exactly like a worker snapshot), progress and service
counters add, and elapsed time takes the longest file — concurrent
heads overlap in wall-clock.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Union

from .metrics import SCHEMA_VERSION, merge_snapshots


def load_telemetry(path: str) -> List[Dict[str, object]]:
    """All parseable records of one telemetry file, in order."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line
            if isinstance(rec, dict):
                records.append(rec)
    return records


def last_snapshot(records: List[Dict[str, object]]
                  ) -> Optional[Dict[str, object]]:
    for rec in reversed(records):
        if rec.get("kind") == "snapshot":
            return rec
    return None


def _fmt_rate(n: float, d: float) -> str:
    return f"{n / d:.1%}" if d else "-"


def _section(title: str) -> List[str]:
    return ["", title, "-" * len(title)]


def _sum_dicts(base: Dict[str, object],
               other: Dict[str, object]) -> Dict[str, object]:
    out = dict(base)
    for k, v in other.items():
        if isinstance(v, (int, float)) \
                and isinstance(out.get(k, 0), (int, float)):
            out[k] = out.get(k, 0) + v
        else:
            out.setdefault(k, v)
    return out


def _merge_file_snapshots(snaps: List[Dict[str, object]]
                          ) -> Dict[str, object]:
    """Fold several files' last snapshots into one fleet view."""
    merged = merge_snapshots(snaps[0], snaps[1:])
    progress: Dict[str, object] = {}
    service: Dict[str, object] = {}
    workers: Dict[str, object] = {}
    runners: Dict[str, object] = {}
    for snap in snaps:
        progress = _sum_dicts(progress, snap.get("progress", {}))
        service = _sum_dicts(service, snap.get("service", {}))
        # Worker / runner ids collide across files; prefix by index.
        idx = snaps.index(snap)
        for wid, w in snap.get("workers", {}).items():
            workers[f"{idx}:{wid}"] = w
        for rid, r in snap.get("runners", {}).items():
            runners[f"{idx}:{rid}"] = r
    merged["elapsed_s"] = max(
        float(s.get("elapsed_s") or s.get("uptime_s") or 0.0)
        for s in snaps)
    if progress:
        merged["progress"] = progress
    if service:
        merged["service"] = service
    if workers:
        merged["workers"] = workers
    if runners:
        merged["runners"] = runners
    merged["final"] = all(s.get("final") for s in snaps)
    return merged


def render_report(path: Union[str, Sequence[str]]) -> str:
    """The human-readable run summary for one telemetry file, or the
    merged offline-fleet summary for several."""
    paths = [path] if isinstance(path, str) else list(path)
    loaded = []
    for p in paths:
        records = load_telemetry(p)
        loaded.append((p, records, last_snapshot(records)))
    if len(paths) == 1:
        p, records, snap = loaded[0]
        if not records:
            return f"{p}: no telemetry records"
        if snap is None:
            return f"{p}: no snapshot records (run died before the " \
                   f"first export interval?)"
        schema = snap.get("schema")
        lines = [f"telemetry report — {p}",
                 f"schema {schema}"
                 + ("" if schema == SCHEMA_VERSION
                    else f" (reader expects {SCHEMA_VERSION})")
                 + f", {len(records)} records"
                 + (", final snapshot" if snap.get("final") else
                    " — PARTIAL: run still in flight (no final "
                    "snapshot; latest snapshot shown)")]
    else:
        usable = [(p, records, snap) for p, records, snap in loaded
                  if snap is not None]
        if not usable:
            return "no snapshot records in any of: " + ", ".join(paths)
        snap = _merge_file_snapshots([s for _, _, s in usable])
        lines = [f"telemetry report — fleet of {len(usable)} file(s)"]
        for p, records, s in usable:
            lines.append(f"  {p}: {len(records)} records"
                         + ("" if s.get("final") else " (PARTIAL)"))
        skipped = [p for p, _, s in loaded if s is None]
        for p in skipped:
            lines.append(f"  {p}: skipped (no snapshot records)")
        if not snap.get("final"):
            lines.append("PARTIAL: at least one run still in flight")
    progress = snap.get("progress", {})
    counters = snap.get("counters", {})
    spans = snap.get("spans", {})
    events = snap.get("events", {})
    elapsed = float(snap.get("elapsed_s") or snap.get("uptime_s") or 0.0)

    lines += _section("campaign")
    shots = counters.get("engine.shots", 0)
    lines.append(f"points   {progress.get('points_done', 0)}/"
                 f"{progress.get('points_total', 0)} done")
    lines.append(f"shots    {progress.get('shots_done', 0):,} aggregated"
                 f" ({shots:,} sampled)")
    if elapsed > 0:
        lines.append(f"elapsed  {elapsed:,.1f}s"
                     f" ({progress.get('shots_done', 0) / elapsed:,.0f}"
                     f" sh/s overall)")
    decisions = counters.get("engine.decisions", 0)
    if decisions:
        lines.append(f"adaptive {decisions} watermark decision(s), "
                     f"{counters.get('engine.early_stops', 0)} early "
                     f"stop(s)")

    if spans:
        lines += _section("phase breakdown")
        total = sum(v["total_s"] for v in spans.values())
        width = max(len(k) for k in spans)
        for name, st in sorted(spans.items(),
                               key=lambda kv: -kv[1]["total_s"]):
            share = _fmt_rate(st["total_s"], total)
            # Self time = cumulative minus nested children, so parent
            # phases stop double-counting their children (schema-1
            # files lack child_s and show self == total).
            self_s = max(st["total_s"] - st.get("child_s", 0.0), 0.0)
            lines.append(f"{name:<{width}}  {st['total_s']:9.3f}s "
                         f"{self_s:9.3f}s self x{st['count']:<7d} "
                         f"{share:>6}")

    profile = snap.get("profile")
    if profile:
        from .prof import render_profile

        lines += _section("profile")
        lines.append(render_profile(profile))

    blocks = counters.get("frames.blocks", 0)
    binds = counters.get("frames.binds", 0)
    fallbacks = counters.get("engine.backend_fallbacks", 0)
    native = counters.get("stabilizer.native_blocks", 0)
    if blocks or binds or fallbacks or native:
        lines += _section("samplers")
        lines.append(f"frames  {blocks:,} blocks, "
                     f"{counters.get('frames.ops', 0):,} ops "
                     f"({counters.get('frames.fused_ops', 0):,} fused); "
                     f"depolarize "
                     f"{counters.get('frames.depolarize_sites', 0):,} sites, "
                     f"{counters.get('frames.depolarize_hits', 0):,} hits; "
                     f"{binds:,} program(s) bound from "
                     f"{counters.get('frames.compiles', 0):,} compiled "
                     f"structure(s) and "
                     f"{counters.get('frames.reseeds', 0):,} reseed(s), "
                     f"{fallbacks:,} auto fallback(s) "
                     f"to the tableau")
        lines.append(f"tableau sampler  {native:,} block(s)")

    hits = counters.get("decode.cache_hits", 0)
    misses = counters.get("decode.cache_misses", 0)
    patterns = counters.get("decode.patterns", 0)
    if hits or misses or patterns:
        lines += _section("decode cache")
        lines.append(f"keyed patterns   {patterns:,} "
                     f"({counters.get('decode.distinct_patterns', 0):,} "
                     f"distinct in-batch, "
                     f"{_fmt_rate(counters.get('decode.distinct_patterns', 0), patterns)})")
        lines.append(f"cache hit rate   {_fmt_rate(hits, hits + misses)} "
                     f"({hits:,} hits / {misses:,} misses)")

    service = snap.get("service", {})
    if service:
        lines += _section("service")
        lines.append(f"jobs        {service.get('jobs', 0)} submitted, "
                     f"{service.get('jobs_done', 0)} complete")
        lines.append(f"points      {service.get('points', 0)} queued "
                     f"fresh, {service.get('points_done', 0)} finished")
        lines.append(f"cache       {service.get('cache_hits', 0)} "
                     f"hit(s), {service.get('coalesced', 0)} coalesced "
                     f"submission(s)")
        lines.append(f"dispatch    {service.get('leases', 0)} lease(s) "
                     f"issued, {service.get('slices_completed', 0)} "
                     f"slice(s) absorbed")
        crashes = service.get("runner_crashes", 0)
        failed = service.get("failed_leases", 0)
        if crashes or failed:
            lines.append(f"failures    {crashes} runner crash(es), "
                         f"{failed} failed lease(s) — slices requeued")

    runners = snap.get("runners", {})
    if runners:
        lines += _section("runners")
        width = max(len(str(r)) for r in runners)
        for rid, h in sorted(runners.items()):
            note = "  ** LOST **" if h.get("lost") else ""
            lines.append(f"{rid:<{width}}  {h.get('leases', 0)} leased, "
                         f"{h.get('completed', 0)} done, "
                         f"{h.get('failed', 0)} failed, "
                         f"{h.get('expired', 0)} expired{note}")

    leases = counters.get("scheduler.leases", 0)
    if leases or snap.get("workers"):
        lines += _section("scheduler")
        lines.append(f"leases dispatched  {leases:,}")
        crashes = counters.get("scheduler.worker_crashes", 0)
        if crashes:
            lines.append(f"worker crashes     {crashes} "
                         f"({counters.get('scheduler.requeued_leases', 0)}"
                         f" lease(s) requeued)")
        for wid, w in sorted(snap.get("workers", {}).items()):
            lines.append(f"worker {wid}: {w.get('shots', 0):,} shots, "
                         f"{w.get('shots_per_s', 0):,.0f} sh/s")

    gauges = snap.get("gauges", {})
    if any(k.startswith("rare.") for k in list(gauges) + list(counters)):
        lines += _section("rare-event sampling")
        if "rare.pilot_tilt" in gauges:
            lines.append(f"pilot rung chosen  "
                         f"tilt={gauges['rare.pilot_tilt']:g} "
                         f"({counters.get('rare.pilot_shots', 0):,} pilot "
                         f"shots)")
        if "rare.ess" in gauges:
            lines.append(f"last task ESS      {gauges['rare.ess']:,.1f}")

    if events:
        lines += _section("events")
        width = max(len(k) for k in events)
        for kind, count in sorted(events.items()):
            lines.append(f"{kind:<{width}}  x{count}")

    return "\n".join(lines)
