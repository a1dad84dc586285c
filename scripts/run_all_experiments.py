#!/usr/bin/env python
"""Run every paper experiment at recording scale and save the outputs.

Produces ``results/figN_*.txt`` / ``.json`` plus ``results/headline.txt``
— the ``repro headline`` paper-vs-measured table.

``-j/--workers N`` spreads every campaign across N worker processes via
the :mod:`repro.parallel` work-stealing scheduler (default: all cores;
results are bit-identical to a serial run, so recorded numbers never
depend on the machine that produced them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.report import ascii_table, to_csv  # noqa: E402
from repro.experiments import (  # noqa: E402
    fig3_temporal,
    fig4_spatial,
    fig5_landscape,
    fig6_distance,
    fig7_spread,
    fig8_architecture,
    headline,
)

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")


def save(name: str, text: str, rows=None) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    if rows is not None:
        with open(os.path.join(RESULTS, f"{name}.json"), "w") as fh:
            json.dump(rows, fh, indent=2, default=str)
    print(f"=== {name} ===\n{text}\n", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-j", "--workers", type=int,
                        default=os.cpu_count() or 1, metavar="N",
                        help="worker processes for the campaign "
                             "scheduler (default: all cores)")
    parser.add_argument("--telemetry", type=str, default=None,
                        metavar="PATH",
                        help="append schema-versioned telemetry "
                             "snapshots (JSONL) here; render with "
                             "'repro report PATH'")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live progress line")
    args = parser.parse_args()
    workers = max(1, args.workers)
    print(f"running campaigns with {workers} worker(s)", flush=True)

    from repro import obs

    with obs.session(telemetry=args.telemetry, quiet=args.quiet):
        _run_all(workers)
    if args.telemetry:
        print(f"[telemetry written to {args.telemetry}]", flush=True)


def _run_all(workers: int) -> None:
    t_start = time.time()

    data3 = fig3_temporal.run()
    save("fig3_temporal", ascii_table(fig3_temporal.sample_table(),
         title="Fig3 sampled injection probabilities")
         + "\n\n" + ascii_table(fig3_temporal.sampling_ablation(),
         title="n_s ablation"), fig3_temporal.sample_table())

    data4 = fig4_spatial.run()
    save("fig4_spatial", ascii_table(data4.radial_profile(),
         title="Fig4 spatial damping radial profile"),
         data4.radial_profile())

    print(f"[{time.time()-t_start:.0f}s] fig5...", flush=True)
    landscapes = fig5_landscape.run(shots=1200, workers=workers)
    rows5 = []
    for ls in landscapes.values():
        rows5.extend(ls.to_rows())
    save("fig5_landscape", ascii_table(fig5_landscape.summarize(landscapes),
         title="Fig5 landscape summary"), rows5)

    print(f"[{time.time()-t_start:.0f}s] fig6...", flush=True)
    rows6 = fig6_distance.run(shots=800, workers=workers)
    save("fig6_distance",
         ascii_table([r.to_row() for r in rows6], title="Fig6 distances")
         + "\n\n" + ascii_table(fig6_distance.bitflip_advantage(rows6),
                                title="bit-flip advantage"),
         [r.to_row() for r in rows6])

    print(f"[{time.time()-t_start:.0f}s] fig7...", flush=True)
    data7 = fig7_spread.run(shots=800, workers=workers)
    rows7 = []
    for d in data7:
        rows7.extend(d.to_rows())
    save("fig7_spread", ascii_table(rows7, title="Fig7 spread vs erasure"),
         rows7)

    print(f"[{time.time()-t_start:.0f}s] fig8...", flush=True)
    data8 = fig8_architecture.run(shots=500, workers=workers)
    rows8 = [d.to_row() for d in data8]
    per_qubit = []
    for d in data8:
        for q in d.per_qubit:
            per_qubit.append({"code": d.code_label, "arch": d.arch_label,
                              "qubit": q.root, "role": q.role,
                              "median_ler": q.median_ler})
    save("fig8_architecture",
         ascii_table(rows8, title="Fig8 by architecture") + "\n\n"
         + ascii_table(per_qubit, title="per-qubit criticality"),
         rows8 + per_qubit)

    print(f"[{time.time()-t_start:.0f}s] headline checks...", flush=True)
    checks = headline.check_all(landscapes, rows6, data7, data8)
    save("headline", ascii_table([c.to_row() for c in checks],
         title="Observations I-VIII"), [c.to_row() for c in checks])

    print(f"total {time.time()-t_start:.0f}s", flush=True)


if __name__ == "__main__":
    main()
