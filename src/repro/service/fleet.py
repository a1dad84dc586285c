"""Fleet view: aggregate several dispatch heads into one report.

``repro fleet URL...`` polls every head's ``/status`` and ``/metrics``
(JSON rendering — already merged with that head's remote-runner
snapshots), then folds the fleet into one summary: per-head and
aggregate shots/s, cache hit rates, in-flight leases, runner health,
and the slowest-span breakdown across every process that did work.

A head that is down is reported, not fatal — the fleet report is
exactly the tool you reach for when part of the fleet is unhealthy.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.report import ascii_table
from ..obs.metrics import merge_snapshots
from .client import ServiceClient, ServiceError


def poll_head(url: str, timeout_s: float = 10.0) -> Dict[str, object]:
    """One head's ``/status`` + ``/metrics``; ``ok=False`` if down."""
    client = ServiceClient(url, timeout_s=timeout_s)
    try:
        return {"url": url, "ok": True,
                "status": client.status(),
                "metrics": client.metrics()}
    except ServiceError as exc:
        return {"url": url, "ok": False, "error": str(exc)}


def _rate(n: float, d: float) -> float:
    return n / d if d else 0.0


def _head_row(head: Dict[str, object]) -> Dict[str, object]:
    status: Dict = head["status"]
    metrics: Dict = head["metrics"]
    counters: Dict = metrics.get("counters", {})
    svc: Dict = status.get("counters", {})
    uptime = float(metrics.get("uptime_s") or 0.0)
    shots = int(counters.get("engine.shots", 0))
    hits = int(svc.get("cache_hits", 0))
    served = hits + int(svc.get("coalesced", 0)) + int(svc.get("points", 0))
    runners: Dict = status.get("runners", {})
    lost = sum(1 for h in runners.values() if h.get("lost"))
    return {
        "head": head["url"],
        "jobs": f"{svc.get('jobs_done', 0)}/{svc.get('jobs', 0)}",
        "inflight": status.get("points_inflight", 0),
        "leases": status.get("leases_outstanding", 0),
        "shots": shots,
        "shots/s": f"{_rate(shots, uptime):,.1f}",
        "cache": f"{_rate(hits, served):.1%}" if served else "-",
        "runners": f"{len(runners)}" + (f" ({lost} lost)" if lost
                                        else ""),
    }


def fleet_overview(urls: Sequence[str],
                   timeout_s: float = 10.0) -> Dict[str, object]:
    """Poll every head and fold the fleet into one structured view."""
    heads = [poll_head(url, timeout_s=timeout_s) for url in urls]
    up = [h for h in heads if h["ok"]]
    merged: Dict[str, object] = {}
    if up:
        merged = merge_snapshots(up[0]["metrics"],
                                 [h["metrics"] for h in up[1:]])
        # Heads run concurrently: fleet wall-clock is the longest
        # uptime, not the sum the counter-merge would imply.
        merged["uptime_s"] = max(float(h["metrics"].get("uptime_s")
                                       or 0.0) for h in up)
    counters: Dict = merged.get("counters", {})
    shots = int(counters.get("engine.shots", 0))
    uptime = float(merged.get("uptime_s") or 0.0)
    hits = int(counters.get("service.cache_hits", 0))
    served = hits + int(counters.get("service.coalesced", 0)) \
        + int(counters.get("service.points", 0))
    aggregate = {
        "heads_up": len(up),
        "heads_down": len(heads) - len(up),
        "jobs": int(counters.get("service.jobs", 0)),
        "jobs_done": int(counters.get("service.jobs_done", 0)),
        "points_inflight": sum(int(h["status"].get("points_inflight",
                                                   0)) for h in up),
        "leases_outstanding": sum(
            int(h["status"].get("leases_outstanding", 0)) for h in up),
        "shots": shots,
        "shots_per_s": round(_rate(shots, uptime), 1),
        "cache_hit_rate": round(_rate(hits, served), 4),
        "runners": sum(len(h["status"].get("runners", {}))
                       for h in up),
        "runners_lost": sum(
            1 for h in up
            for r in h["status"].get("runners", {}).values()
            if r.get("lost")),
    }
    return {"heads": heads, "aggregate": aggregate, "merged": merged}


def render_fleet(overview: Dict[str, object],
                 top_spans: int = 8) -> str:
    """The human-readable fleet report."""
    heads: List[Dict] = overview["heads"]
    agg: Dict = overview["aggregate"]
    merged: Dict = overview["merged"]
    lines = [f"fleet report — {agg['heads_up']}/{len(heads)} head(s) up"]
    down = [h for h in heads if not h["ok"]]
    for head in down:
        lines.append(f"  DOWN {head['url']}: {head['error']}")
    up = [h for h in heads if h["ok"]]
    if not up:
        return "\n".join(lines)
    lines.append("")
    lines.append(ascii_table([_head_row(h) for h in up],
                             title="per head"))
    lines.append("")
    lines.append("aggregate")
    lines.append("-" * len("aggregate"))
    lines.append(f"jobs      {agg['jobs_done']}/{agg['jobs']} done, "
                 f"{agg['points_inflight']} point(s) in flight, "
                 f"{agg['leases_outstanding']} lease(s) outstanding")
    lines.append(f"shots     {agg['shots']:,} sampled "
                 f"({agg['shots_per_s']:,.1f} sh/s fleet-wide)")
    lines.append(f"cache     {agg['cache_hit_rate']:.1%} hit rate")
    lines.append(f"runners   {agg['runners']} known"
                 + (f", {agg['runners_lost']} LOST"
                    if agg["runners_lost"] else ""))
    spans: Dict = merged.get("spans", {})
    if spans:
        lines.append("")
        rows = [{"phase": name, "total_s": round(st["total_s"], 3),
                 "count": st["count"],
                 "mean_ms": round(_rate(st["total_s"] * 1e3,
                                        st["count"]), 3)}
                for name, st in sorted(
                    spans.items(), key=lambda kv: -kv[1]["total_s"])
                [:top_spans]]
        lines.append(ascii_table(rows, title="slowest spans "
                                 f"(fleet-wide, top {len(rows)})"))
    return "\n".join(lines)
