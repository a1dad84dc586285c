"""Shared experiment plumbing.

Every campaign figure module follows the same pattern:

* ``build_campaign(shots, ...)`` — the exact task list, as a
  :class:`~repro.injection.Campaign`; run it with
  :meth:`Campaign.run <repro.injection.Campaign.run>` and whatever
  engine options the caller wants (workers, store, adaptive); a task
  field such as the backend is set on the tasks themselves,
* ``analyze(results)`` — the figure's data series from the
  :class:`~repro.injection.results.ResultSet`: it keeps the results
  tagged with its own figure and reads every spec parameter (p values,
  codes, roots, architectures) back from the tasks, so the results of
  one campaign spanning several figures analyse per figure,
* ``report(data)`` — the tables the figure prints, as a
  :class:`Report`.

Shot counts default to laptop-scale statistics (Wilson CIs of a few
percent); benchmarks pass smaller values, and the ``repro headline``
table is computed at the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Tuple

from ..injection.campaign import _prepared
from ..injection.spec import ArchSpec, CodeSpec

#: Paper default intrinsic noise (§IV-C).
DEFAULT_P = 0.01
#: Paper default syndrome rounds (Figs. 1-2).
DEFAULT_ROUNDS = 2
#: Temporal samples of the radiation step function (§III-B).
NUM_TIME_SAMPLES = 10


@dataclass(frozen=True)
class Report:
    """What a figure prints, and the data rows behind it.

    ``head`` prints first; given ``--csv``, the CLI then writes ``rows``
    to that file and prints ``note`` (formatted with the path);
    ``tail`` prints last.  ``scripts/run_all_experiments.py`` saves
    ``head`` and ``tail`` as text and ``rows`` as JSON.
    """

    head: str
    rows: List[Dict[str, object]]
    tail: str = ""
    note: str = "\n[csv written to {}]"


def distinct(values: Iterable[Hashable]) -> list:
    """``values`` without repeats, in first-seen (campaign) order."""
    return list(dict.fromkeys(values))


def fitting_mesh(num_qubits: int, max_cols: int = 6) -> ArchSpec:
    """The paper's 5x6 lattice "scaled down according to the qubit
    requirements": the minimal-area ``rows x cols`` mesh with
    ``cols <= 6`` that fits the code, preferring the squarest shape
    (6 -> 2x3, 10 -> 2x5, 18 -> 3x6, 30 -> 5x6)."""
    best = None
    for cols in range(1, max_cols + 1):
        rows = max(1, math.ceil(num_qubits / cols))
        if rows > 5 and num_qubits <= 5 * max_cols:
            continue  # stay inside the 5x6 footprint when possible
        area = rows * cols
        squareness = abs(rows - cols)
        key = (area, squareness, rows)
        if best is None or key < best[0]:
            best = (key, (rows, cols))
    return ArchSpec("mesh", best[1])


def used_physical_qubits(code: CodeSpec, arch: ArchSpec,
                         rounds: int = DEFAULT_ROUNDS, basis: str = "Z",
                         layout: str = "best",
                         decoder: str = "mwpm") -> Tuple[int, ...]:
    """Physical qubits touched by the transpiled memory circuit.

    Fig. 8 injects faults only at qubits the circuit actually uses
    ("unused qubits ... have been omitted").
    """
    experiment, _, _ = _prepared(code, rounds, basis, arch, layout, decoder)
    return experiment.circuit.qubits_used()


def initial_layout_roles(code: CodeSpec, arch: ArchSpec,
                         rounds: int = DEFAULT_ROUNDS, basis: str = "Z",
                         layout: str = "best") -> dict:
    """``{physical qubit: role label}`` from the initial placement."""
    from ..transpile import transpile

    built = code.build()
    from ..codes import build_memory_experiment

    exp = build_memory_experiment(built, rounds=rounds, basis=basis)
    routed = transpile(exp.circuit, arch.build(), layout=layout)
    roles = {}
    for logical, physical in routed.initial_layout.items():
        if logical < built.num_qubits:
            roles[physical] = built.role(logical).value
    return roles
