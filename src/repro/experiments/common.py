"""Shared experiment plumbing.

Every figure module follows the same pattern:

* ``build_campaign(shots, ...)`` — the exact task list,
* ``run(shots, ..., workers)`` — execute and post-process,
* ``format_table(data)`` — the rows/series the paper's figure reports.

Shot counts default to laptop-scale statistics (Wilson CIs of a few
percent); benchmarks pass smaller values, and the ``repro headline``
table is computed at the defaults.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

from ..injection.adaptive import AdaptivePolicy
from ..injection.campaign import Campaign, _prepared
from ..injection.results import ResultSet
from ..injection.spec import ArchSpec, CodeSpec, InjectionTask
from ..injection.store import CampaignStore

#: Paper default intrinsic noise (§IV-C).
DEFAULT_P = 0.01
#: Paper default syndrome rounds (Figs. 1-2).
DEFAULT_ROUNDS = 2
#: Temporal samples of the radiation step function (§III-B).
NUM_TIME_SAMPLES = 10


def execute(campaign: Campaign,
            store: Union[CampaignStore, str, None] = None,
            adaptive: Optional[AdaptivePolicy] = None,
            chunk_shots: Optional[int] = None,
            backend: Optional[str] = None,
            workers: Optional[int] = None) -> ResultSet:
    """Run a figure campaign through the orchestration engine.

    The single funnel every experiment module uses, so campaign-level
    features — chunked streaming, JSONL checkpoint/resume (``store``
    takes a :class:`CampaignStore` or a path), adaptive shot allocation,
    backend selection (``backend="auto"|"frames"|"tableau"``; tasks
    default to "auto", which prefers the bit-packed Pauli-frame sampler),
    block-level scheduling (``workers`` processes under the
    :mod:`repro.parallel` scheduler — ``None`` = ``REPRO_WORKERS``, else
    all cores; ``1`` = the same loop in-process; counts bit-identical
    at any value) — apply uniformly to all figures without per-module
    plumbing.
    """
    return campaign.run(chunk_shots=chunk_shots, adaptive=adaptive,
                        backend=backend,
                        resume=CampaignStore.coerce(store),
                        workers=workers)


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
