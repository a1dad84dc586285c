"""Extension bench — syndrome-round sweep under strike vs noise-only.

Answers a design question the paper leaves open (RQ3 direction): do
extra syndrome rounds help against a persistent radiation fault, or
does the added exposure cancel the decoding gain?
"""

import pytest

from repro.analysis.report import ascii_table
from repro.experiments import rounds_ablation

pytestmark = pytest.mark.figure


def test_rounds_ablation(benchmark, bench_shots, capsys):
    def run():
        return rounds_ablation.analyze(rounds_ablation.build_campaign(
            shots=bench_shots, rounds_list=(1, 2, 4)).run())

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + ascii_table(
            [r.to_row() for r in rows],
            title="Rounds ablation — xxzz-(3,3)@mesh-5x4, strike at q2"))
    # The strike scenario must stay far above noise-only at every depth.
    for r in rows:
        assert r.strike_ler > r.noise_only_ler
