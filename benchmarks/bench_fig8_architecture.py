"""Figure 8 bench — per-architecture, per-root-qubit criticality.

Bench scale: a representative architecture subset, strided roots, two
time samples.  Prints the per-architecture medians (the panel summary of
the paper's Fig. 8) and the SWAP counts that explain them.
"""

import pytest

from repro.analysis.report import ascii_table
from repro.experiments import fig8_architecture
from repro.injection.spec import ArchSpec, CodeSpec

pytestmark = pytest.mark.figure

#: Reduced configuration: the architectures whose ordering carries the
#: paper's Observation VIII (mesh vs linear vs heavy-hex).
BENCH_CONFIGS = (
    (CodeSpec("repetition", (11, 1)),
     (ArchSpec("linear", (22,)), ArchSpec("mesh", (5, 6)),
      ArchSpec("cairo"))),
    (CodeSpec("xxzz", (3, 3)),
     (ArchSpec("mesh", (5, 4)), ArchSpec("linear", (18,)),
      ArchSpec("cambridge"))),
)


def test_fig8_architectures(benchmark, bench_shots, capsys):
    def run():
        return fig8_architecture.analyze(fig8_architecture.build_campaign(
            shots=bench_shots, configs=BENCH_CONFIGS, time_indices=(0, 4),
            max_roots=8).run())

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + ascii_table(
            [d.to_row() for d in data],
            title="Fig. 8 — median LER by architecture"))
    by_key = {(d.code_label, d.arch_label): d for d in data}
    # Shape: XXZZ on a linear chain is the worst configuration.
    xxzz_line = by_key[("xxzz-(3,3)", "linear-18")]
    xxzz_mesh = by_key[("xxzz-(3,3)", "mesh-5x4")]
    assert xxzz_line.median_ler > xxzz_mesh.median_ler
    assert xxzz_line.swap_count > xxzz_mesh.swap_count
    # Shape: the repetition code tolerates the linear chain.
    rep_line = by_key[("repetition-(11,1)", "linear-22")]
    rep_hex = by_key[("repetition-(11,1)", "cairo")]
    assert rep_line.median_ler <= rep_hex.median_ler + 0.05
