"""Figure 6 bench — logical-error criticality by code distance.

Bench scale: every paper distance, three injection roots per code.
Prints the per-distance median rows and the Observation IV advantage.
"""

import pytest

from repro.analysis.report import ascii_table
from repro.experiments import fig6_distance

pytestmark = pytest.mark.figure


def test_fig6_distance_sweep(benchmark, bench_shots, capsys):
    def run():
        return fig6_distance.analyze(fig6_distance.build_campaign(
            shots=bench_shots, max_roots=3).run())

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + ascii_table([r.to_row() for r in rows],
                                 title="Fig. 6 — median LER by distance"))
        print(ascii_table(fig6_distance.bitflip_advantage(rows),
                          title="Observation IV — bit-flip advantage"))
    by_key = {(r.family, r.distance): r for r in rows}
    # Shape: bit-flip protected variants beat phase-flip mirrors.
    assert (by_key[("xxzz", (3, 1))].median_ler
            < by_key[("xxzz", (1, 3))].median_ler)
    # Shape: the repetition code worsens from (3,1) to (13,1)+ levels.
    assert (by_key[("repetition", (13, 1))].median_ler
            > by_key[("repetition", (3, 1))].median_ler - 0.05)
