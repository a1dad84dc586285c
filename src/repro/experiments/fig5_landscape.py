"""Figure 5 — logical-error landscape: intrinsic noise x radiation.

For the distance-(5,1) repetition code on a 5x2 lattice and the
distance-(3,3) XXZZ code on a 5x4 lattice (paper §V-A), sweeps the
intrinsic physical error rate ``p`` from 1e-8 to 1e-1 against the full
time evolution of a radiation fault rooted at physical qubit 2, and
interpolates the post-decoding logical error surface.

Shape targets (DESIGN.md): high LER at the strike for *every* p
(Observation I) and no destructive interference — the surface never
dips as either noise source intensifies (Observation II).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.landscape import Landscape
from ..analysis.report import ascii_table
from ..injection import Campaign, InjectionTask
from ..injection.results import ResultSet
from ..injection.spec import ArchSpec, CodeSpec, FaultSpec
from ..noise.radiation import sample_times, temporal_decay
from .common import DEFAULT_ROUNDS, NUM_TIME_SAMPLES, Report, distinct

#: The two paper configurations: (code, lattice, root qubit).
CONFIGS: Tuple[Tuple[CodeSpec, ArchSpec, int], ...] = (
    (CodeSpec("repetition", (5, 1)), ArchSpec("mesh", (5, 2)), 2),
    (CodeSpec("xxzz", (3, 3)), ArchSpec("mesh", (5, 4)), 2),
)

#: Intrinsic-noise sweep, 1e-8 .. 1e-1 (paper's axis).
P_VALUES: Tuple[float, ...] = tuple(10.0 ** e for e in range(-8, 0))


def build_campaign(shots: int = 1500,
                   p_values: Sequence[float] = P_VALUES,
                   configs=CONFIGS, root_seed: int = 501) -> Campaign:
    """All (code, p, time-sample) points of the landscape."""
    tasks: List[InjectionTask] = []
    for code, arch, root in configs:
        for p in p_values:
            for k in range(NUM_TIME_SAMPLES):
                tasks.append(InjectionTask(
                    code=code, arch=arch,
                    fault=FaultSpec(kind="radiation", root_qubit=root,
                                    time_index=k),
                    intrinsic_p=float(p), rounds=DEFAULT_ROUNDS,
                    shots=shots,
                ).with_tags(fig="fig5", code=code.label, p=p, t=k))
    return Campaign(tasks, root_seed=root_seed)


def analyze(results: ResultSet) -> Dict[str, Landscape]:
    """One landscape per code from the ``fig5`` results: the p axis and
    the codes read back from the tasks, in campaign order."""
    results = results.filter_tags(fig="fig5")
    p_values = distinct(r.task.intrinsic_p for r in results)
    times = sample_times(NUM_TIME_SAMPLES)
    landscapes: Dict[str, Landscape] = {}
    for code in distinct(r.task.code for r in results):
        rates = np.full((len(p_values), NUM_TIME_SAMPLES), np.nan)
        for r in results.filter_tags(code=code.label):
            i = p_values.index(r.task.intrinsic_p)
            j = int(dict(r.task.tags)["t"])
            rates[i, j] = r.logical_error_rate
        landscapes[code.label] = Landscape(
            code_label=code.label,
            p_values=np.asarray(p_values, dtype=float),
            time_indices=np.arange(NUM_TIME_SAMPLES),
            root_probs=temporal_decay(times),
            rates=rates,
        )
    return landscapes


def summarize(landscapes: Dict[str, Landscape]) -> List[Dict[str, object]]:
    """Headline numbers the paper quotes from Fig. 5."""
    rows = []
    for label, ls in landscapes.items():
        strike = ls.at_strike()
        rows.append({
            "code": label,
            "peak_ler": ls.peak,
            "ler_at_strike_mean": float(np.nanmean(strike)),
            "ler_at_strike_max": float(np.nanmax(strike)),
            "radiation_floor_p1e-8": float(ls.rates[0, 0]),
            "noise_only_ler_p1e-1": float(ls.rates[-1, -1]),
            "dip_violations": ls.monotone_violations(axis=0, tol=0.03),
        })
    return rows


def report(landscapes: Dict[str, Landscape]) -> Report:
    """The heatmaps and summary ``repro fig5`` prints; the rows are the
    full surface."""
    heatmaps = "".join(ls.ascii_heatmap() + "\n\n"
                       for ls in landscapes.values())
    rows = [row for ls in landscapes.values() for row in ls.to_rows()]
    return Report(heatmaps + ascii_table(summarize(landscapes),
                                         title="Fig. 5 — landscape summary"),
                  rows, note="[full surface written to {}]")
