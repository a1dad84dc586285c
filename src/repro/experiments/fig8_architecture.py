"""Figure 8 — logical error by corrupted qubit across architectures.

Transpiles the distance-(11,1) repetition code and the distance-(3,3)
XXZZ code onto the paper's architecture menagerie, injects a spreading
radiation fault at every used physical qubit, and reports the median
logical error over the fault's time evolution per injection point.

Shape targets (Observations VII-VIII): earlier-used qubits show higher
medians; the repetition code favours linear/mesh while the XXZZ code
needs well-connected graphs (its SWAP overhead explodes on the linear
chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import ascii_table
from ..analysis.stats import median_with_iqr
from ..injection import Campaign, InjectionTask
from ..injection.results import ResultSet
from ..injection.spec import ArchSpec, CodeSpec, FaultSpec
from ..injection.campaign import _prepared
from .common import (
    DEFAULT_P,
    DEFAULT_ROUNDS,
    NUM_TIME_SAMPLES,
    Report,
    distinct,
    initial_layout_roles,
    used_physical_qubits,
)

#: Fig. 8a: the 22-qubit repetition code and its eligible architectures.
REP_CODE = CodeSpec("repetition", (11, 1))
REP_ARCHS: Tuple[ArchSpec, ...] = (
    ArchSpec("linear", (22,)),
    ArchSpec("mesh", (5, 6)),
    ArchSpec("brooklyn"),
    ArchSpec("cairo"),
    ArchSpec("cambridge"),
)

#: Fig. 8b: the 18-qubit XXZZ code and its eligible architectures.
XXZZ_CODE = CodeSpec("xxzz", (3, 3))
XXZZ_ARCHS: Tuple[ArchSpec, ...] = (
    ArchSpec("complete", (18,)),
    ArchSpec("linear", (18,)),
    ArchSpec("mesh", (5, 4)),
    ArchSpec("almaden"),
    ArchSpec("johannesburg"),
    ArchSpec("cambridge"),
    ArchSpec("brooklyn"),
)

CONFIGS: Tuple[Tuple[CodeSpec, Tuple[ArchSpec, ...]], ...] = (
    (REP_CODE, REP_ARCHS),
    (XXZZ_CODE, XXZZ_ARCHS),
)


def build_campaign(shots: int = 400, root_seed: int = 801,
                   configs=CONFIGS,
                   time_indices: Optional[Sequence[int]] = None,
                   max_roots: Optional[int] = None) -> Campaign:
    """Tasks for every (code, architecture, root qubit, time sample)."""
    if time_indices is None:
        time_indices = range(NUM_TIME_SAMPLES)
    tasks: List[InjectionTask] = []
    for code, archs in configs:
        for arch in archs:
            roots = used_physical_qubits(code, arch)
            if max_roots is not None and len(roots) > max_roots:
                stride = max(1, len(roots) // max_roots)
                roots = roots[::stride][:max_roots]
            for root in roots:
                for k in time_indices:
                    tasks.append(InjectionTask(
                        code=code, arch=arch,
                        fault=FaultSpec(kind="radiation", root_qubit=root,
                                        time_index=int(k)),
                        intrinsic_p=DEFAULT_P, rounds=DEFAULT_ROUNDS,
                        shots=shots,
                    ).with_tags(fig="fig8", code=code.label,
                                arch=arch.label, root=root, t=int(k)))
    return Campaign(tasks, root_seed=root_seed)


@dataclass
class QubitCriticality:
    """Median LER for one root injection point (a node of Fig. 8)."""

    arch: str
    root: int
    role: str
    median_ler: float
    q25: float
    q75: float


@dataclass
class ArchitectureData:
    """One architecture's panel entry."""

    code: CodeSpec
    arch: ArchSpec
    swap_count: int
    per_qubit: List[QubitCriticality]

    @property
    def code_label(self) -> str:
        return self.code.label

    @property
    def arch_label(self) -> str:
        return self.arch.label

    @property
    def median_ler(self) -> float:
        return float(np.median([q.median_ler for q in self.per_qubit]))

    @property
    def min_ler(self) -> float:
        return float(min(q.median_ler for q in self.per_qubit))

    @property
    def max_ler(self) -> float:
        return float(max(q.median_ler for q in self.per_qubit))

    def to_row(self) -> Dict[str, object]:
        return {
            "code": self.code_label,
            "arch": self.arch_label,
            "swaps": self.swap_count,
            "median_ler": self.median_ler,
            "min_ler": self.min_ler,
            "max_ler": self.max_ler,
            "qubits": len(self.per_qubit),
        }


def analyze(results: ResultSet) -> List[ArchitectureData]:
    """One panel entry per (code, architecture) from the ``fig8``
    results, each root's median taken over its time samples."""
    results = results.filter_tags(fig="fig8")
    out: List[ArchitectureData] = []
    for code, arch in distinct((r.task.code, r.task.arch) for r in results):
        sub = results.filter_tags(code=code.label, arch=arch.label)
        roles = initial_layout_roles(code, arch)
        roots = sorted({int(dict(r.task.tags)["root"]) for r in sub})
        per_qubit = []
        for root in roots:
            pts = sub.filter_tags(root=root)
            med, q25, q75 = median_with_iqr(pts.rates())
            per_qubit.append(QubitCriticality(
                arch=arch.label, root=root,
                role=roles.get(root, "-"),
                median_ler=med, q25=q25, q75=q75))
        out.append(ArchitectureData(
            code=code, arch=arch, swap_count=sub[0].swap_count,
            per_qubit=per_qubit))
    return out


def report(data: Sequence[ArchitectureData]) -> Report:
    """The architecture table ``repro fig8`` prints, then every
    injection point's median."""
    rows = [d.to_row() for d in data]
    per_qubit = [{"code": d.code_label, "arch": d.arch_label,
                  "qubit": q.root, "role": q.role,
                  "median_ler": q.median_ler}
                 for d in data for q in d.per_qubit]
    return Report(
        ascii_table(rows, title="Fig. 8 — logical error by architecture"),
        rows,
        "\n" + ascii_table(per_qubit, title="Per-qubit criticality"))


def first_use_correlation(data: ArchitectureData) -> float:
    """Spearman correlation between a root's *first-use gate index* in
    the transpiled circuit and its median LER.

    This operationalises Observation VII's stated mechanism directly:
    qubits entering the gate sequence earlier reach more of the DAG, so
    their faults should yield higher logical error (negative rho).
    """
    from scipy.stats import spearmanr

    experiment, _, _ = _prepared(data.code, DEFAULT_ROUNDS, "Z", data.arch,
                                 "best", "mwpm", "ancilla")
    first_use: Dict[int, int] = {}
    for gi, gate in enumerate(experiment.circuit):
        for q in gate.qubits:
            first_use.setdefault(q, gi)
    pts = [(first_use.get(q.root, len(experiment.circuit)), q.median_ler)
           for q in data.per_qubit]
    if len(pts) < 3:
        return float("nan")
    rho, _ = spearmanr([p[0] for p in pts], [p[1] for p in pts])
    return float(rho)
