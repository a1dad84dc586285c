"""Declarative sweep specifications → campaigns.

A sweep is the Cartesian product of small axis lists — codes ×
architectures × faults × intrinsic noise levels — described by a plain
JSON-able mapping, so campaigns can be launched from the CLI (``repro
campaign spec.json``), version-controlled next to their results, and
re-run bit-identically.

Example spec::

    {
      "codes":  [{"kind": "repetition", "distance": [5, 1]},
                 {"kind": "xxzz", "distance": [3, 3]}],
      "archs":  [null, {"name": "mesh", "args": [5, 4]}, "cairo"],
      "faults": [{"kind": "none"},
                 {"kind": "radiation", "root_qubit": 2, "time_index": 0}],
      "p_values": [1e-3, 1e-2],
      "shots": 4000,
      "root_seed": 2024,
      "tags": {"sweep": "demo"}
    }

Scalar knobs (``rounds``, ``basis``, ``decoder`` — a kind string like
``"union-find:hooks"`` or a mapping, see :func:`repro.decoders.spec.
as_decoder` — ``readout``, ``layout``, ``backend``, ``recovery``,
``sampler`` — a kind string like ``"tilt:8"`` or a mapping, see
:func:`repro.rare.sampler.as_sampler`) apply to every task.  A
``"workers"`` key sets the campaign's default worker-process count
for the :mod:`repro.parallel` scheduler (1 = the same loop in-process;
counts stay bit-identical either way).  Each
task is tagged with its axis coordinates so results group naturally.
"""

from __future__ import annotations

import difflib
from typing import Any, List, Mapping, Optional, Sequence

from ..decoders.spec import as_decoder
from ..rare.sampler import as_sampler
from .campaign import Campaign
from .spec import (ArchSpec, CodeSpec, FaultSpec, InjectionTask, build_arch,
                   build_experiment)

#: Recognised top-level spec keys (anything else is a typo worth failing
#: loudly on — a silently ignored axis would corrupt a week-long sweep).
SPEC_KEYS = frozenset({
    "codes", "archs", "faults", "p_values", "shots", "rounds", "basis",
    "decoder", "readout", "layout", "backend", "recovery", "sampler",
    "root_seed", "tags", "workers",
})


def _unknown_key_error(unknown) -> ValueError:
    """Unknown-key failure with a did-you-mean hint per typo."""
    hints = []
    for key in sorted(unknown):
        close = difflib.get_close_matches(str(key), sorted(SPEC_KEYS),
                                          n=1, cutoff=0.6)
        hints.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)"
                                   if close else ""))
    return ValueError(
        f"unknown sweep spec key{'s' if len(hints) > 1 else ''}: "
        f"{', '.join(hints)}; recognised: {sorted(SPEC_KEYS)}")


def _code(entry: Any) -> CodeSpec:
    if isinstance(entry, CodeSpec):
        return entry
    if isinstance(entry, Mapping):
        return CodeSpec(kind=str(entry["kind"]),
                        distance=tuple(int(d) for d in entry["distance"]))
    if isinstance(entry, Sequence) and len(entry) == 2:
        kind, dist = entry
        return CodeSpec(kind=str(kind), distance=tuple(int(d) for d in dist))
    raise ValueError(f"cannot parse code spec {entry!r}")


def _arch(entry: Any) -> Optional[ArchSpec]:
    if entry is None or isinstance(entry, ArchSpec):
        return entry
    if isinstance(entry, str):
        return ArchSpec(entry)
    if isinstance(entry, Mapping):
        return ArchSpec(name=str(entry["name"]),
                        args=tuple(int(a) for a in entry.get("args", ())))
    raise ValueError(f"cannot parse arch spec {entry!r}")


def _fault(entry: Any) -> FaultSpec:
    if isinstance(entry, FaultSpec):
        return entry
    if isinstance(entry, Mapping):
        kwargs = dict(entry)
        if "qubits" in kwargs:
            kwargs["qubits"] = tuple(int(q) for q in kwargs["qubits"])
        return FaultSpec(**kwargs)
    raise ValueError(f"cannot parse fault spec {entry!r}")


def fault_label(fault: FaultSpec) -> str:
    """Short tag value identifying a fault axis entry."""
    if fault.kind == "radiation":
        if fault.strike_round >= 0:
            return (f"radiation(q{fault.root_qubit},r{fault.strike_round}"
                    f"*{fault.intensity:g})")
        return f"radiation(q{fault.root_qubit},t{fault.time_index})"
    if fault.kind == "erasure":
        return f"erasure({','.join(map(str, fault.qubits))})"
    return "none"


def _check_fault_qubits(fault: FaultSpec, code: CodeSpec,
                        arch: Optional[ArchSpec], rounds: int,
                        basis: str) -> None:
    """Reject a fault on a qubit the device lacks: the engine would
    index past it (a radiation root) or inject nothing (an erasure).
    The device is sized by the engine's own cached builders."""
    qubits = (fault.root_qubit,) if fault.kind == "radiation" \
        else fault.qubits
    if not qubits:
        return
    size = (build_arch(arch).num_qubits if arch is not None
            else build_experiment(code, rounds, basis).circuit.num_qubits)
    if max(qubits) >= size:
        device = arch.label if arch is not None else code.label
        raise ValueError(f"fault qubit {max(qubits)} outside {device}'s "
                         f"{size} qubits")


def _axes(spec: Mapping[str, Any]):
    """Validate + normalize the four product axes (shared by
    :func:`build_sweep` and :func:`sweep_size`, so the pre-flight count
    can never disagree with the expansion)."""
    unknown = set(spec) - SPEC_KEYS
    if unknown:
        raise _unknown_key_error(unknown)
    for axis in ("codes", "archs", "faults", "p_values"):
        if axis in spec and not spec[axis]:
            raise ValueError(f"sweep spec axis {axis!r} is empty — the "
                             f"product would be zero points")
    if "codes" not in spec:
        raise ValueError("sweep spec needs a non-empty 'codes' axis")
    codes = [_code(c) for c in spec["codes"]]
    archs = [_arch(a) for a in spec.get("archs", [None])]
    faults = [_fault(f) for f in spec.get("faults", [{"kind": "none"}])]
    p_values = [float(p) for p in spec.get("p_values", [0.01])]
    return codes, archs, faults, p_values


def build_sweep(spec: Mapping[str, Any]) -> Campaign:
    """Expand a sweep spec into a seeded :class:`Campaign`.

    Task order — and therefore per-task derived seeds — is the
    deterministic product order codes → archs → faults → p_values.
    """
    codes, archs, faults, p_values = _axes(spec)
    base_tags = {str(k): str(v) for k, v in dict(spec.get("tags", {})).items()}

    common = dict(
        shots=int(spec.get("shots", 2000)),
        rounds=int(spec.get("rounds", 2)),
        basis=str(spec.get("basis", "Z")),
        decoder=as_decoder(spec.get("decoder")),
        readout=str(spec.get("readout", "ancilla")),
        layout=str(spec.get("layout", "best")),
        backend=str(spec.get("backend", "auto")),
        recovery=str(spec.get("recovery", "static")),
        sampler=as_sampler(spec.get("sampler")),
    )

    tasks: List[InjectionTask] = []
    for code in codes:
        for arch in archs:
            for fault in faults:
                _check_fault_qubits(fault, code, arch, common["rounds"],
                                    common["basis"])
                for p in p_values:
                    task = InjectionTask(code=code, arch=arch, fault=fault,
                                         intrinsic_p=p, **common)
                    tasks.append(task.with_tags(
                        code=code.label,
                        arch=arch.label if arch else "-",
                        fault=fault_label(fault), p=p, **base_tags))
    workers = spec.get("workers")
    return Campaign(tasks, root_seed=int(spec.get("root_seed", 2024)),
                    workers=None if workers is None else int(workers))


def sweep_size(spec: Mapping[str, Any]) -> int:
    """Number of points a spec expands to (cheap pre-flight check)."""
    codes, archs, faults, p_values = _axes(spec)
    return len(codes) * len(archs) * len(faults) * len(p_values)
