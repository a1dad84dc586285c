#!/usr/bin/env python
"""Run every paper experiment at recording scale and save the outputs.

Produces ``results/figN_*.txt`` / ``.json`` plus ``results/headline.txt``
— the ``repro headline`` paper-vs-measured table, checked against the
figure campaigns recorded here.

``-j/--workers N`` spreads every campaign across N worker processes via
the :mod:`repro.parallel` scheduler (default: ``REPRO_WORKERS``, else
all cores; results are bit-identical to a serial run, so recorded
numbers never depend on the machine that produced them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.report import ascii_table  # noqa: E402
from repro.experiments import (  # noqa: E402
    FIGURES,
    fig3_temporal,
    fig4_spatial,
    headline,
)

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")

#: Recording shot budget per figure campaign.
BUDGETS = {"fig5": 1200, "fig6": 800, "fig7": 800, "fig8": 500}


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
    parser.add_argument("-j", "--workers", type=int, default=None,
                        metavar="N",
                        help="worker processes for the campaign "
                             "scheduler (default: REPRO_WORKERS, else "
                             "all cores)")
    parser.add_argument("--telemetry", type=str, default=None,
                        metavar="PATH",
                        help="append schema-versioned telemetry "
                             "snapshots (JSONL) here; render with "
                             "'repro report PATH'")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live progress line")
    args = parser.parse_args()

    from repro import obs
    from repro.parallel import default_workers

    print(f"running campaigns with {default_workers(args.workers)} "
          f"worker(s)", flush=True)
    with obs.session(telemetry=args.telemetry, quiet=args.quiet):
        _run_all(args.workers)
    if args.telemetry:
        print(f"[telemetry written to {args.telemetry}]", flush=True)


def _run_all(workers) -> None:
    t_start = time.time()

    save("fig3_temporal", ascii_table(fig3_temporal.sample_table(),
         title="Fig3 sampled injection probabilities")
         + "\n\n" + ascii_table(fig3_temporal.sampling_ablation(),
         title="n_s ablation"), fig3_temporal.sample_table())

    data4 = fig4_spatial.run()
    save("fig4_spatial", ascii_table(data4.radial_profile(),
         title="Fig4 spatial damping radial profile"),
         data4.radial_profile())

    data = []
    for name, shots in BUDGETS.items():
        figure = FIGURES[name]
        print(f"[{time.time()-t_start:.0f}s] {name}...", flush=True)
        data.append(figure.analyze(
            figure.build_campaign(shots=shots).run(workers=workers)))
        report = figure.report(data[-1])
        save(figure.__name__.rpartition(".")[2], report.text, report.rows)

    print(f"[{time.time()-t_start:.0f}s] headline checks...", flush=True)
    report = headline.report(headline.check_all(*data))
    save("headline", report.text, report.rows)

    print(f"total {time.time()-t_start:.0f}s", flush=True)


if __name__ == "__main__":
    main()
