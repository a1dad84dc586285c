"""Syndrome-round ablation (extension beyond the paper).

The paper fixes two syndrome-extraction rounds (Figs. 1-2).  Because a
radiation fault *persists* across the whole shot, adding rounds is a
plausible mitigation: later rounds watch the fault decay and give the
decoder more temporal structure.  This experiment sweeps the round
count under (a) intrinsic noise only and (b) a radiation strike, and
reports whether extra rounds pay for their extra exposure — design
guidance in the spirit of the paper's RQ3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..injection import Campaign, InjectionTask
from ..injection.results import ResultSet
from ..injection.spec import ArchSpec, CodeSpec, FaultSpec
from .common import DEFAULT_P, distinct

#: Round counts swept (paper value: 2).
ROUND_COUNTS: Tuple[int, ...] = (1, 2, 3, 4, 6)

CODE = CodeSpec("xxzz", (3, 3))
ARCH = ArchSpec("mesh", (5, 4))


def build_campaign(shots: int = 1000, root_seed: int = 901,
                   rounds_list: Sequence[int] = ROUND_COUNTS) -> Campaign:
    tasks: List[InjectionTask] = []
    for rounds in rounds_list:
        for scenario, fault in [
            ("noise-only", FaultSpec()),
            ("strike", FaultSpec(kind="radiation", root_qubit=2,
                                 time_index=0)),
        ]:
            tasks.append(InjectionTask(
                code=CODE, arch=ARCH, fault=fault, rounds=int(rounds),
                intrinsic_p=DEFAULT_P, shots=shots,
            ).with_tags(fig="rounds", rounds=rounds, scenario=scenario))
    return Campaign(tasks, root_seed=root_seed)


@dataclass
class RoundsRow:
    rounds: int
    noise_only_ler: float
    strike_ler: float

    def to_row(self) -> Dict[str, object]:
        return {"rounds": self.rounds,
                "noise_only_ler": self.noise_only_ler,
                "strike_ler": self.strike_ler}


def analyze(results: ResultSet) -> List[RoundsRow]:
    """One row per round count of the ``rounds`` results."""
    results = results.filter_tags(fig="rounds")
    rows = []
    for rounds in distinct(r.task.rounds for r in results):
        sub = results.filter_tags(rounds=rounds)
        noise = sub.filter_tags(scenario="noise-only")
        strike = sub.filter_tags(scenario="strike")
        rows.append(RoundsRow(
            rounds=int(rounds),
            noise_only_ler=noise.pooled_rate(),
            strike_ler=strike.pooled_rate()))
    return rows
