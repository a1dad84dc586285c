"""Figure 7 bench — spreading fault vs multi-qubit erasure clusters.

Bench scale: both paper codes, three cluster samples per size.  Prints
the per-size medians against the spreading-fault red line.
"""

import pytest

from repro.analysis.report import ascii_table, percent
from repro.experiments import fig7_spread

pytestmark = pytest.mark.figure


def test_fig7_spread(benchmark, bench_shots, capsys):
    def run():
        return fig7_spread.analyze(fig7_spread.build_campaign(
            shots=bench_shots, samples_per_size=3).run())

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for d in data:
        rows.extend(d.to_rows())
    with capsys.disabled():
        print("\n" + ascii_table(
            rows, title="Fig. 7 — erased-cluster size vs logical error"))
        for d in data:
            eq = fig7_spread.equivalent_erasures(d)
            print(f"  {d.code_label}: spreading fault "
                  f"({percent(d.radiation_ler)}) ~ "
                  f"{eq if eq is not None else '>max'} erasures")
    for d in data:
        # Shape: erasing (well) more than half the qubits is catastrophic.
        big = [m for s, m in zip(d.sizes, d.median_ler)
               if s > d.num_qubits // 2]
        assert big and max(big) > 0.5
        # Shape: the spreading fault out-damages a single erasure.
        single = d.median_ler[d.sizes.index(1)]
        assert d.radiation_ler > single - 0.05
