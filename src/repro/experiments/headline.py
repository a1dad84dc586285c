"""Headline observation checks (paper Observations I-VIII).

Runs Figs. 5-8 as one campaign, analyses each figure's share of the
results and evaluates every qualitative claim of the paper, producing
the paper-vs-measured rows of the ``repro headline`` table.  Each check
is a *shape* assertion — orderings, trends, crossovers — rather than an
absolute-number comparison (our substrate is a simulator stack, not the
authors' exact qtcodes/Qiskit versions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.landscape import Landscape
from ..analysis.report import ascii_table
from ..injection import Campaign
from ..injection.results import ResultSet
from . import fig5_landscape, fig6_distance, fig7_spread, fig8_architecture
from .common import Report
from .fig6_distance import DistanceRow, bitflip_advantage
from .fig7_spread import SpreadData
from .fig8_architecture import ArchitectureData, first_use_correlation


@dataclass
class ObservationCheck:
    """One paper claim with our measured verdict."""

    observation: str
    paper_claim: str
    measured: str
    holds: bool

    def to_row(self) -> Dict[str, object]:
        return {
            "obs": self.observation,
            "paper": self.paper_claim,
            "measured": self.measured,
            "holds": "yes" if self.holds else "NO",
        }


def check_observation_1(landscapes: Dict[str, Landscape]
                        ) -> ObservationCheck:
    """Radiation keeps LER catastrophic even at p = 1e-8."""
    floors = {label: float(ls.rates[0, 0]) for label, ls in landscapes.items()}
    measured = ", ".join(f"{k}: {v:.0%}" for k, v in floors.items())
    return ObservationCheck(
        observation="I",
        paper_claim="LER at strike stays >20% even at p=1e-8 "
                    "(24% rep / 52% xxzz)",
        measured=f"LER at strike, p=1e-8: {measured}",
        holds=all(v > 0.15 for v in floors.values()),
    )


def check_observation_2(landscapes: Dict[str, Landscape],
                        tol: float = 0.05) -> ObservationCheck:
    """No destructive interference: surface has no significant dips."""
    worst = {}
    for label, ls in landscapes.items():
        # Violations along the noise axis (rates should rise with p).
        n_cells = ls.rates.size
        worst[label] = ls.monotone_violations(axis=0, tol=tol) / n_cells
    measured = ", ".join(f"{k}: {v:.1%} dip cells" for k, v in worst.items())
    return ObservationCheck(
        observation="II",
        paper_claim="intrinsic noise and radiation interfere only "
                    "constructively (no pits in the surface)",
        measured=measured,
        holds=all(v < 0.10 for v in worst.values()),
    )


def check_observation_3(rows: Sequence[DistanceRow]) -> ObservationCheck:
    """Larger repetition codes are MORE sensitive to a fixed fault."""
    rep = [r for r in rows if r.family == "repetition"]
    rep.sort(key=lambda r: r.distance[0])
    lers = [r.median_ler for r in rep]
    measured = " -> ".join(f"{x:.0%}" for x in lers)
    smallest, largest = lers[0], max(lers[-2:]) if len(lers) >= 2 else lers[-1]
    return ObservationCheck(
        observation="III",
        paper_claim="repetition-code median LER rises with distance "
                    "(~8% at (3,1) to ~20% at (13,1))",
        measured=f"rep {rep[0].distance}..{rep[-1].distance}: {measured}",
        holds=largest > smallest,
    )


def check_observation_4(rows: Sequence[DistanceRow]) -> ObservationCheck:
    """Bit-flip protection beats phase-flip at equal qubit count."""
    adv = bitflip_advantage(rows)
    measured = ", ".join(
        f"{a['bitflip_code']} {a['bitflip_ler']:.0%} vs "
        f"{a['phaseflip_code']} {a['phaseflip_ler']:.0%}" for a in adv)
    return ObservationCheck(
        observation="IV",
        paper_claim="bit-flip protected variants beat phase-flip mirrors "
                    "by up to ~10% ((3,1)<(1,3), (5,3)<(3,5))",
        measured=measured,
        holds=bool(adv) and all(a["advantage"] > 0 for a in adv),
    )


def check_observation_5(spread: Sequence[SpreadData]) -> ObservationCheck:
    """One spreading fault out-damages several independent erasures."""
    measured_parts = []
    holds = True
    for d in spread:
        single = d.median_ler[d.sizes.index(1)] if 1 in d.sizes else np.nan
        measured_parts.append(
            f"{d.code_label}: 1-qubit erase {single:.0%} vs "
            f"spreading {d.radiation_ler:.0%}")
        holds &= d.radiation_ler > single
    return ObservationCheck(
        observation="V",
        paper_claim="a single correlated spreading fault is worse than a "
                    "single (and several) uncorrelated erasures",
        measured="; ".join(measured_parts),
        holds=holds,
    )


def check_observation_6(spread: Sequence[SpreadData]) -> ObservationCheck:
    """LER escalates with erased-cluster size (>=80% past half).

    The trend check compares the small-cluster and large-cluster ends
    rather than demanding strict per-step monotonicity: cluster medians
    carry parity effects (erasing an even number of data qubits leaves
    the raw parity readout intact) and sampling noise, both visible in
    the paper's own step-shaped Fig. 7.
    """
    measured_parts = []
    holds = True
    for d in spread:
        half = d.num_qubits // 2
        big = [m for s, m in zip(d.sizes, d.median_ler) if s > half]
        top = max(big) if big else np.nan
        measured_parts.append(
            f"{d.code_label}: 1 erased {d.median_ler[0]:.0%} -> "
            f">{half} erased {top:.0%}")
        holds &= bool(big) and top > 0.6 and top > d.median_ler[0]
    return ObservationCheck(
        observation="VI",
        paper_claim="erasing more than half the qubits drives LER to ~80%",
        measured="; ".join(measured_parts),
        holds=holds,
    )


def check_observation_7(arch_data: Sequence[ArchitectureData]
                        ) -> ObservationCheck:
    """Earlier-used qubits are more critical.

    Measured through the mechanism the paper states (first-use order in
    the gate sequence), since physical indices lose meaning after
    transpilation.  The effect is small relative to per-root sampling
    noise — we require the *direction* (negative mean correlation), and
    the ``repro headline`` table reports the measured magnitude.
    """
    rhos = []
    for d in arch_data:
        rho = first_use_correlation(d)
        if np.isfinite(rho):
            rhos.append(rho)
    mean_rho = float(np.mean(rhos)) if rhos else float("nan")
    return ObservationCheck(
        observation="VII",
        paper_claim="median LER decreases for later-used qubits (earlier "
                    "gates spread further through the DAG)",
        measured=f"mean Spearman rho(first-use order, LER) = {mean_rho:+.2f} "
                 f"over {len(rhos)} panels",
        holds=bool(rhos) and mean_rho < 0,
    )


def check_observation_8(arch_data: Sequence[ArchitectureData]
                        ) -> ObservationCheck:
    """Connectivity must match the code: mesh ~best for XXZZ, and the
    linear chain is catastrophic for XXZZ but fine for repetition."""
    rep = {d.arch_label: d for d in arch_data
           if d.code_label.startswith("repetition")}
    xxzz = {d.arch_label: d for d in arch_data
            if d.code_label.startswith("xxzz")}
    holds = True
    parts = []
    lin_rep = next((d for n, d in rep.items() if n.startswith("linear")), None)
    if lin_rep is not None and rep:
        best_rep = min(rep.values(), key=lambda d: d.median_ler)
        parts.append(f"rep: linear {lin_rep.median_ler:.0%} "
                     f"(best {best_rep.arch_label} {best_rep.median_ler:.0%})")
        holds &= lin_rep.median_ler <= best_rep.median_ler + 0.05
    lin_xxzz = next((d for n, d in xxzz.items() if n.startswith("linear")), None)
    mesh_xxzz = next((d for n, d in xxzz.items() if n.startswith("mesh")), None)
    if lin_xxzz is not None and mesh_xxzz is not None:
        parts.append(f"xxzz: mesh {mesh_xxzz.median_ler:.0%} "
                     f"(swaps {mesh_xxzz.swap_count}) vs linear "
                     f"{lin_xxzz.median_ler:.0%} (swaps {lin_xxzz.swap_count})")
        holds &= lin_xxzz.median_ler > mesh_xxzz.median_ler
        holds &= lin_xxzz.swap_count > mesh_xxzz.swap_count
    return ObservationCheck(
        observation="VIII",
        paper_claim="well-connected graphs curb SWAP overhead and fault "
                    "spread for XXZZ; repetition is near-optimal on linear",
        measured="; ".join(parts),
        holds=holds,
    )


def check_all(landscapes: Optional[Dict[str, Landscape]] = None,
              distance_rows: Optional[Sequence[DistanceRow]] = None,
              spread_data: Optional[Sequence[SpreadData]] = None,
              arch_data: Optional[Sequence[ArchitectureData]] = None
              ) -> List[ObservationCheck]:
    """Evaluate every observation for which data was supplied."""
    checks: List[ObservationCheck] = []
    if landscapes:
        checks.append(check_observation_1(landscapes))
        checks.append(check_observation_2(landscapes))
    if distance_rows:
        checks.append(check_observation_3(distance_rows))
        checks.append(check_observation_4(distance_rows))
    if spread_data:
        checks.append(check_observation_5(spread_data))
        checks.append(check_observation_6(spread_data))
    if arch_data:
        checks.append(check_observation_7(arch_data))
        checks.append(check_observation_8(arch_data))
    return checks


def build_campaign(shots: int = 800) -> Campaign:
    """Figs. 5-8 as one campaign (Fig. 8 at ``max(200, shots // 2)``).

    Each figure's tasks are seeded by its own campaign first, so every
    point keeps the seed — and the store key — it has when that figure
    runs alone.
    """
    campaigns = (fig5_landscape.build_campaign(shots=shots),
                 fig6_distance.build_campaign(shots=shots),
                 fig7_spread.build_campaign(shots=shots),
                 fig8_architecture.build_campaign(shots=max(200, shots // 2)))
    return Campaign([t for c in campaigns for t in c._seeded()])


def analyze(results: ResultSet) -> List[ObservationCheck]:
    """Every observation the figures in ``results`` carry data for."""
    return check_all(fig5_landscape.analyze(results),
                     fig6_distance.analyze(results),
                     fig7_spread.analyze(results),
                     fig8_architecture.analyze(results))


def report(checks: Sequence[ObservationCheck]) -> Report:
    """The ``repro headline`` table."""
    rows = [c.to_row() for c in checks]
    return Report(ascii_table(
        rows, title="Paper observations I-VIII — paper vs measured"), rows)
