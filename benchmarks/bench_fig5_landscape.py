"""Figure 5 bench — logical-error landscape (noise x radiation).

Bench scale: both paper configurations, a thinned p-sweep, all ten time
samples.  Prints the landscape summary (peak, strike column, radiation
floor) that the paper quotes; the full-resolution surface is in
results/fig5_landscape.json.
"""

import numpy as np
import pytest

from repro.analysis.report import ascii_table
from repro.experiments import fig5_landscape

pytestmark = pytest.mark.figure

#: Thinned intrinsic-noise sweep for bench scale.
P_BENCH = (1e-8, 1e-5, 1e-2, 1e-1)


def test_fig5_landscape(benchmark, bench_shots, capsys):
    def run():
        return fig5_landscape.analyze(fig5_landscape.build_campaign(
            shots=bench_shots, p_values=P_BENCH).run())

    landscapes = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = fig5_landscape.summarize(landscapes)
    with capsys.disabled():
        print("\n" + ascii_table(rows, title="Fig. 5 — landscape summary"))
        for label, ls in landscapes.items():
            strike = " ".join(f"{x:.2f}" for x in ls.at_strike())
            print(f"  {label}: LER at strike per p {list(P_BENCH)}: {strike}")
    # Shape: the radiation floor stays catastrophic at p=1e-8 (Obs. I).
    for row in rows:
        assert row["radiation_floor_p1e-8"] > 0.15
    # Shape: LER grows with p at fixed fault (Obs. II direction).
    for ls in landscapes.values():
        tail = ls.rates[:, -1]
        assert tail[-1] > tail[0] - 0.05
