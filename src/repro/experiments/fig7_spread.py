"""Figure 7 — spreading radiation fault vs multiple uncorrelated erasures.

For the distance-(15,1) repetition code and the distance-(3,3) XXZZ
code, connected subgraphs of increasing size are erased simultaneously
(reset probability 1 on every member) and the logical error is compared
against the *single* spreading radiation fault at t=0 (the red line of
the paper's figure).

Shape targets: the logical error grows monotonically with the number of
simultaneously erased qubits, exceeding ~80% once more than half the
circuit is erased; a single spreading fault out-damages several
independent erasures (Observations V-VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import ascii_table, percent
from ..analysis.stats import median_with_iqr
from ..injection import Campaign, InjectionTask
from ..injection.results import ResultSet
from ..injection.spec import ArchSpec, CodeSpec, FaultSpec
from ..injection.campaign import build_arch
from .common import (DEFAULT_P, DEFAULT_ROUNDS, Report, distinct,
                     fitting_mesh, used_physical_qubits)

#: Paper configurations: code, erased-cluster sizes shown on the x-axis.
CONFIGS: Tuple[Tuple[CodeSpec, Tuple[int, ...]], ...] = (
    (CodeSpec("repetition", (15, 1)), (1, 5, 10, 11, 15, 16, 20)),
    (CodeSpec("xxzz", (3, 3)), (1, 5, 9, 10, 14, 15)),
)

#: Connected subgraphs sampled per cluster size.  Medians over few
#: clusters are noisy (parity effects: erasing an even number of data
#: qubits preserves the raw parity readout), so sample generously.
SAMPLES_PER_SIZE = 10


def _subgraph_pool(code: CodeSpec, arch: ArchSpec, size: int,
                   count: int, seed: int) -> List[Tuple[int, ...]]:
    """Sample connected clusters inside the *used* part of the lattice."""
    graph = build_arch(arch)
    used = used_physical_qubits(code, arch)
    inside = set(used)

    def neighbors(q: int) -> List[int]:
        return [w for w in graph.neighbors(q) if w in inside]

    rng = np.random.default_rng(seed)
    pools: List[Tuple[int, ...]] = []
    seen = set()
    attempts = 0
    while len(pools) < count and attempts < 60 * count:
        attempts += 1
        seed_q = int(rng.choice(used))
        chosen = {seed_q}
        frontier = set(neighbors(seed_q))
        ok = True
        while len(chosen) < size:
            frontier -= chosen
            if not frontier:
                ok = False
                break
            pick = int(rng.choice(sorted(frontier)))
            chosen.add(pick)
            frontier |= set(neighbors(pick))
        if not ok:
            continue
        key = tuple(sorted(chosen))
        if key not in seen:
            seen.add(key)
            pools.append(key)
    return pools


def build_campaign(shots: int = 800, root_seed: int = 701,
                   samples_per_size: int = SAMPLES_PER_SIZE,
                   configs=CONFIGS) -> Campaign:
    tasks: List[InjectionTask] = []
    for code, sizes in configs:
        arch = fitting_mesh(code.build().num_qubits)
        used = used_physical_qubits(code, arch)
        for size in sizes:
            if size > len(used):
                continue
            clusters = _subgraph_pool(code, arch, size, samples_per_size,
                                      seed=root_seed + size)
            for ci, cluster in enumerate(clusters):
                tasks.append(InjectionTask(
                    code=code, arch=arch,
                    fault=FaultSpec(kind="erasure", qubits=cluster,
                                    probability=1.0),
                    intrinsic_p=DEFAULT_P, rounds=DEFAULT_ROUNDS,
                    shots=shots,
                ).with_tags(fig="fig7", code=code.label, size=size,
                            cluster=ci))
        # Red line: single spreading radiation fault at t=0, every root.
        for root in used:
            tasks.append(InjectionTask(
                code=code, arch=arch,
                fault=FaultSpec(kind="radiation", root_qubit=root,
                                time_index=0, spread=True),
                intrinsic_p=DEFAULT_P, rounds=DEFAULT_ROUNDS, shots=shots,
            ).with_tags(fig="fig7", code=code.label, size="radiation",
                        root=root))
    return Campaign(tasks, root_seed=root_seed)


@dataclass
class SpreadData:
    """One panel of Fig. 7."""

    code_label: str
    sizes: List[int]
    median_ler: List[float]
    q25: List[float]
    q75: List[float]
    radiation_ler: float      # the red line
    num_qubits: int

    def to_rows(self) -> List[Dict[str, object]]:
        rows = []
        for s, m, lo, hi in zip(self.sizes, self.median_ler,
                                self.q25, self.q75):
            rows.append({"code": self.code_label,
                         "erased_qubits": s, "median_ler": m,
                         "q25": lo, "q75": hi,
                         "radiation_line": self.radiation_ler})
        return rows


def analyze(results: ResultSet) -> List[SpreadData]:
    """One panel per code from the ``fig7`` results: the per-size
    cluster medians, in campaign order, against the red line."""
    results = results.filter_tags(fig="fig7")
    out: List[SpreadData] = []
    for code in distinct(r.task.code for r in results):
        sub = results.filter_tags(code=code.label)
        sizes = distinct(int(size) for size in
                         (dict(r.task.tags)["size"] for r in sub)
                         if size != "radiation")
        med_list, q25_list, q75_list = [], [], []
        for size in sizes:
            med, q25, q75 = median_with_iqr(
                sub.filter_tags(size=size).rates())
            med_list.append(med)
            q25_list.append(q25)
            q75_list.append(q75)
        rad = sub.filter_tags(size="radiation")
        rad_med, _, _ = median_with_iqr(rad.rates())
        out.append(SpreadData(
            code_label=code.label, sizes=sizes, median_ler=med_list,
            q25=q25_list, q75=q75_list, radiation_ler=rad_med,
            num_qubits=code.build().num_qubits))
    return out


def equivalent_erasures(data: SpreadData) -> Optional[int]:
    """Smallest erased-cluster size whose median LER reaches the single
    spreading fault's (the paper's 'how many resets equal one strike')."""
    for s, m in zip(data.sizes, data.median_ler):
        if m >= data.radiation_ler:
            return s
    return None


def report(data: Sequence[SpreadData]) -> Report:
    """The size table ``repro fig7`` prints, then how many erasures
    one spreading fault is worth per code."""
    rows = [row for d in data for row in d.to_rows()]
    lines = []
    for d in data:
        eq = equivalent_erasures(d)
        lines.append(f"{d.code_label}: spreading fault ~ "
                     f"{eq if eq is not None else '>max'} simultaneous "
                     f"erasures (radiation line {percent(d.radiation_ler)})")
    title = "Fig. 7 — fault spread vs erasure count"
    return Report(ascii_table(rows, title=title), rows, "\n".join(lines))
