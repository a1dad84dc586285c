"""Compare two full reports of the benchmark: ``compare A.json B.json``.

One row per (workload, end-to-end metric) with both values, their
quartiles, the metric's bound and a verdict for B against A:

``same``        B is within the bound of A
``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``unresolved``  either side's inter-quartile spread exceeds the bound,
                so the runs cannot tell (never reported as "same")

Exit status 1 on any ``worse`` row or any rise in ``failed_share`` —
the agreement check between two sets of runs of one commit, and the
regression check between a parent and a change.  Per-layer counts that
differ between the two reports are listed after the table: two sets of
runs of one commit must agree on every one of them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402  (sibling module, path set above)


def verdict(metric: str, a: Dict[str, object], b: Dict[str, object]) -> str:
    _, better, bound = metrics.BOUNDED[metric]
    if max(metrics.relative_spread(a), metrics.relative_spread(b)) > bound:
        return "unresolved"
    change = float(b["value"]) / float(a["value"]) - 1.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[dict]:
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric in metrics.BOUNDED:
            if metric not in wa["end_to_end"] \
                    or metric not in wb["end_to_end"]:
                continue
            ra, rb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            rows.append({"workload": name, "metric": metric,
                         "a": ra, "b": rb,
                         "bound": metrics.BOUNDED[metric][2],
                         "verdict": verdict(metric, ra, rb)})
        rows.append({"workload": name, "metric": "failed_share",
                     "a": {"value": wa["failed_share"]},
                     "b": {"value": wb["failed_share"]}, "bound": 0.0,
                     "verdict": "worse" if wb["failed_share"]
                     > wa["failed_share"] else "same"})
    return rows


def differing_counts(a: Dict[str, object], b: Dict[str, object]
                     ) -> List[str]:
    """``workload metric: A -> B`` for every per-layer count that moved.
    Two counts depend on timing and are skipped: scheduler steals (who
    went idle first) and store reads (every 0.2 s status poll of a
    running service job reads each finished point back).
    """
    timing_dependent = {"parallel.steals", "injection.store_reads"}
    out = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name, {"per_layer": {}})
        for metric, (unit, _) in metrics.PER_LAYER.items():
            if unit != "count" or metric in timing_dependent:
                continue
            va = wa["per_layer"].get(metric, {}).get("value")
            vb = wb["per_layer"].get(metric, {}).get("value")
            if va != vb:
                out.append(f"{name} {metric}: {va} -> {vb}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="report of the parent (run --json)")
    parser.add_argument("b", help="report of the change")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    if (a["seed"], a["size"]) != (b["seed"], b["size"]):
        print(f"note: comparing seed/size {a['seed']}/{a['size']} with "
              f"{b['seed']}/{b['size']}")
    rows = compare(a, b)
    print(f"{'workload':<14} {'metric':<14} {'A':>11} {'A q1..q3':>23} "
          f"{'B':>11} {'B q1..q3':>23} {'B/A-1':>8} {'bound':>6}  verdict")
    for row in rows:
        ra, rb = row["a"], row["b"]

        def span(r) -> str:
            return f"{r['q1']:.5g}..{r['q3']:.5g}" if "q1" in r else ""

        change = float(rb["value"]) / float(ra["value"]) - 1.0 \
            if ra["value"] else 0.0
        print(f"{row['workload']:<14} {row['metric']:<14} "
              f"{float(ra['value']):>11.5g} {span(ra):>23} "
              f"{float(rb['value']):>11.5g} {span(rb):>23} "
              f"{change:>+8.3f} {row['bound']:>6.2f}  {row['verdict']}")
    tally = {v: sum(1 for r in rows if r["verdict"] == v)
             for v in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in tally.items()))
    moved = differing_counts(a, b)
    print(f"per-layer counts that differ: {len(moved)}")
    for line in moved:
        print(f"  {line}")
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
