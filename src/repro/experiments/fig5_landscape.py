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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.landscape import Landscape
from ..injection import Campaign, InjectionTask
from ..injection.spec import ArchSpec, CodeSpec, FaultSpec
from ..noise.radiation import sample_times, temporal_decay
from .common import DEFAULT_ROUNDS, NUM_TIME_SAMPLES, execute

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


def run(shots: int = 1500, p_values: Sequence[float] = P_VALUES,
        configs=CONFIGS, store=None, adaptive=None,
        chunk_shots: Optional[int] = None, backend: Optional[str] = None,
        workers: Optional[int] = None) -> Dict[str, Landscape]:
    """Execute the sweep and assemble one landscape per code."""
    campaign = build_campaign(shots=shots, p_values=p_values,
                              configs=configs)
    results = execute(campaign, store=store, adaptive=adaptive,
                      chunk_shots=chunk_shots,
                      backend=backend, workers=workers)
    times = sample_times(NUM_TIME_SAMPLES)
    landscapes: Dict[str, Landscape] = {}
    for code, _, _ in configs:
        rates = np.full((len(p_values), NUM_TIME_SAMPLES), np.nan)
        for r in results.filter_tags(code=code.label):
            tags = dict(r.task.tags)
            i = list(p_values).index(float(tags["p"]))
            j = int(tags["t"])
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
