"""Figure 6 — logical-error criticality by code distance.

A single non-spreading erasure (reset at 100% intensity, the t=0 moment
of a strike) is injected at every possible root qubit; the median
logical error across roots is reported per code distance.

Shape targets: the repetition code's median error *rises* with distance
(Observation III, ~8% at (3,1) to ~20% at (13,1)); the bit-flip
protected XXZZ variants beat their phase-flip mirrors — (3,1) < (1,3)
and (5,3) < (3,5) — by up to ~10% (Observation IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import ascii_table
from ..analysis.stats import median_with_iqr
from ..injection import Campaign, InjectionTask
from ..injection.results import ResultSet
from ..injection.spec import ArchSpec, CodeSpec, FaultSpec
from .common import (DEFAULT_P, DEFAULT_ROUNDS, Report, distinct,
                     fitting_mesh, used_physical_qubits)

#: Repetition-code distances of Fig. 6a.
REP_DISTANCES: Tuple[Tuple[int, int], ...] = (
    (3, 1), (5, 1), (7, 1), (9, 1), (11, 1), (13, 1), (15, 1))
#: XXZZ distances of Fig. 6b.
XXZZ_DISTANCES: Tuple[Tuple[int, int], ...] = (
    (1, 3), (3, 1), (3, 3), (3, 5), (5, 3))


def _configs() -> List[Tuple[CodeSpec, ArchSpec]]:
    configs = []
    for dist in REP_DISTANCES:
        spec = CodeSpec("repetition", dist)
        configs.append((spec, fitting_mesh(2 * dist[0])))
    for dist in XXZZ_DISTANCES:
        spec = CodeSpec("xxzz", dist)
        configs.append((spec, fitting_mesh(2 * dist[0] * dist[1])))
    return configs


#: Intrinsic noise level of the ``--deep`` baseline points: two-plus
#: decades below the fault-dominated curves, where plain MC would need
#: millions of shots per point.
DEEP_P = 2e-4


def build_campaign(shots: int = 600, root_seed: int = 601,
                   max_roots: Optional[int] = None,
                   deep: bool = False, deep_p: float = DEEP_P) -> Campaign:
    """One erasure task per (code, root qubit).

    ``max_roots`` caps the injection points per code (evenly strided)
    for quick runs; ``None`` sweeps every used physical qubit.

    ``deep`` adds one *intrinsic-noise floor* point per code: no
    radiation fault, ``deep_p`` depolarizing noise, data readout, and
    the auto-tilted importance sampler (:mod:`repro.rare`) — the
    logical error rates these points measure sit orders of magnitude
    below what the fault-dominated sweep (or plain Monte Carlo at this
    shot budget) can resolve, extending Fig. 6's LER axis into the
    deep tail.
    """
    from ..rare.sampler import SamplerSpec

    tasks: List[InjectionTask] = []
    for spec, arch in _configs():
        roots = used_physical_qubits(spec, arch)
        if max_roots is not None and len(roots) > max_roots:
            stride = max(1, len(roots) // max_roots)
            roots = roots[::stride][:max_roots]
        for root in roots:
            tasks.append(InjectionTask(
                code=spec, arch=arch,
                fault=FaultSpec(kind="erasure", qubits=(root,),
                                probability=1.0),
                intrinsic_p=DEFAULT_P, rounds=DEFAULT_ROUNDS, shots=shots,
            ).with_tags(fig="fig6", family=spec.kind,
                        dz=spec.distance[0], dx=spec.distance[1],
                        root=root))
        if deep:
            # No architecture: the floor is a property of the code
            # itself, and the un-transpiled circuit keeps the noise
            # model exactly lowerable (frame backend + tilting).
            tasks.append(InjectionTask(
                code=spec, arch=None, fault=FaultSpec(kind="none"),
                intrinsic_p=deep_p, rounds=DEFAULT_ROUNDS,
                readout="data",
                sampler=SamplerSpec(kind="tilt", tilt=0.0),
                shots=max(8 * shots, 8192),
            ).with_tags(fig="fig6", family=spec.kind,
                        dz=spec.distance[0], dx=spec.distance[1],
                        deep=1))
    return Campaign(tasks, root_seed=root_seed)


@dataclass
class DistanceRow:
    """One bar of Fig. 6."""

    family: str
    distance: Tuple[int, int]
    circuit_size: int
    median_ler: float
    q25: float
    q75: float
    num_roots: int

    def to_row(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "distance": f"({self.distance[0]},{self.distance[1]})",
            "circuit_size": self.circuit_size,
            "median_ler": self.median_ler,
            "q25": self.q25,
            "q75": self.q75,
            "roots": self.num_roots,
        }


def analyze(results: ResultSet) -> List[DistanceRow]:
    """One bar per code from the ``fig6`` results, plus one ``+deep``
    row per code where the campaign carried deep floor points."""
    results = results.filter_tags(fig="fig6")
    rows: List[DistanceRow] = []
    for spec in distinct(r.task.code for r in results):
        sub = results.filter(lambda r: r.task.code == spec)
        fault_sub = sub.filter(lambda r: "deep" not in dict(r.task.tags))
        med, q25, q75 = median_with_iqr(fault_sub.rates())
        rows.append(DistanceRow(
            family=spec.kind, distance=spec.distance,
            circuit_size=spec.build().num_qubits,
            median_ler=med, q25=q25, q75=q75,
            num_roots=len(fault_sub)))
        # The weighted tail estimate: one row per code, the Wilson CI
        # of the importance-sampled rate standing in for the IQR of the
        # root sweep.
        for r in sub.filter_tags(deep=1):
            lo, hi = r.confidence_interval
            rows.append(DistanceRow(
                family=f"{spec.kind}+deep", distance=spec.distance,
                circuit_size=spec.build().num_qubits,
                median_ler=r.logical_error_rate, q25=lo, q75=hi,
                num_roots=1))
    return rows


def bitflip_advantage(rows: Sequence[DistanceRow]) -> List[Dict[str, object]]:
    """Observation IV: bit-flip vs phase-flip protection at equal size."""
    by_key = {(r.family, r.distance): r for r in rows}
    pairs = [((3, 1), (1, 3)), ((5, 3), (3, 5))]
    out = []
    for bit, phase in pairs:
        b = by_key.get(("xxzz", bit))
        p = by_key.get(("xxzz", phase))
        if b and p:
            out.append({
                "bitflip_code": f"xxzz-{bit}",
                "phaseflip_code": f"xxzz-{phase}",
                "bitflip_ler": b.median_ler,
                "phaseflip_ler": p.median_ler,
                "advantage": p.median_ler - b.median_ler,
            })
    return out


def report(rows: Sequence[DistanceRow]) -> Report:
    """The distance table ``repro fig6`` prints, then Observation IV's
    bit-flip advantage."""
    deep = any(r.family.endswith("+deep") for r in rows)
    table = [r.to_row() for r in rows]
    head = ascii_table(table,
                       title="Fig. 6 — logical error criticality by code "
                             "distance"
                             + (" (+ deep intrinsic-noise floor)"
                                if deep else ""))
    adv = bitflip_advantage(rows)
    tail = ("\n" + ascii_table(adv,
                               title="Observation IV — bit-flip advantage")
            if adv else "")
    return Report(head, table, tail)
