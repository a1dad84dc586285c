"""Figure 3 bench — the sampled temporal decay T̂(t).

Prints the paper's sampled injection probabilities and the n_s ablation
(the accuracy/cost trade-off behind the paper's n_s = 10 choice).
"""

import pytest

from repro.analysis.report import ascii_table
from repro.experiments import fig3_temporal

pytestmark = pytest.mark.figure


def test_fig3_series(benchmark, capsys):
    rows = benchmark(fig3_temporal.sample_table)
    assert rows[0]["injection_prob"] == pytest.approx(1.0)
    with capsys.disabled():
        print("\n" + ascii_table(
            rows,
            title="Fig. 3 — T̂ sampled injection probabilities "
                  "(gamma=10, n_s=10)"))


def test_fig3_sampling_ablation(benchmark, capsys):
    rows = benchmark(fig3_temporal.sampling_ablation)
    with capsys.disabled():
        print("\n" + ascii_table(rows, title="Fig. 3 — n_s ablation"))
    errs = [r["mean_abs_error"] for r in rows]
    assert errs == sorted(errs, reverse=True)
