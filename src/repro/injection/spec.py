"""Declarative injection-task specifications.

Campaign tasks are small frozen dataclasses that fully describe one
configuration point (code, architecture, fault, noise, shots, seed).
Workers rebuild the heavyweight objects (circuits, detector graphs)
from the spec — specs pickle cheaply across process boundaries and
cache naturally, and every result is reproducible from its spec alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Mapping, Optional, Tuple

from ..arch import ArchitectureGraph, by_name
from ..arch.library import factory
from ..codes import (
    MemoryExperiment,
    RepetitionCode,
    StabilizerCode,
    XXZZCode,
    build_memory_experiment,
)
from ..decoders.spec import RECOVERY_POLICIES, DecoderSpec, as_decoder
from ..noise.executor import validate_backend
from ..rare.sampler import SamplerSpec, as_sampler


@dataclass(frozen=True)
class CodeSpec:
    """Which surface code to build.

    ``kind`` is ``"repetition"`` or ``"xxzz"``; ``distance`` is the
    paper's ``(d_Z, d_X)`` tuple (repetition codes take ``(d, 1)`` for
    bit-flip or ``(1, d)`` for phase-flip protection).
    """

    kind: str
    distance: Tuple[int, int]

    def build(self) -> StabilizerCode:
        dz, dx = self.distance
        if self.kind == "repetition":
            if dz > 1 and dx > 1:
                raise ValueError("repetition code needs dZ==1 or dX==1")
            if dx == 1:
                return RepetitionCode(dz, basis="Z")
            return RepetitionCode(dx, basis="X")
        if self.kind == "xxzz":
            return XXZZCode(dz, dx)
        raise ValueError(f"unknown code kind {self.kind!r}")

    @property
    def label(self) -> str:
        return f"{self.kind}-({self.distance[0]},{self.distance[1]})"


@dataclass(frozen=True)
class ArchSpec:
    """Which architecture graph to build (by registry name + args)."""

    name: str
    args: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        factory(self.name)      # an unknown name fails here, not in a worker

    def build(self) -> ArchitectureGraph:
        return by_name(self.name, *self.args)

    @property
    def label(self) -> str:
        if self.args:
            return f"{self.name}-{'x'.join(map(str, self.args))}"
        return self.name


@dataclass(frozen=True)
class FaultSpec:
    """The fault to inject.

    kind:
        ``"none"`` — intrinsic noise only;
        ``"radiation"`` — spreading transient fault (Eq. 7) rooted at
        ``root_qubit``, evaluated at temporal sample ``time_index``;
        ``"erasure"`` — fixed-probability resets on ``qubits`` with no
        spatial evolution (Figs. 6-7).

    strike_round:
        ``-1`` (default) freezes the radiation transient at one
        temporal sample for the whole circuit — the paper's per-sample
        sweep.  A value ``>= 0`` switches to the *streaming-detection
        scenario*: the circuit runs clean until that syndrome round,
        then the strike lands and decays one temporal sample per round
        (:class:`~repro.noise.radiation.RadiationBurst`);
        ``time_index`` is ignored.  ``intensity`` scales the deposited
        energy (1.0 = the paper's full strike).
    """

    kind: str = "none"
    root_qubit: int = 0
    time_index: int = 0
    spread: bool = True
    qubits: Tuple[int, ...] = ()
    probability: float = 1.0
    gamma: float = 10.0
    spatial_n: float = 1.0
    num_samples: int = 10
    strike_round: int = -1
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "radiation", "erasure"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "radiation" and self.strike_round < 0 \
                and not 0 <= self.time_index < self.num_samples:
            raise ValueError("time_index outside the sampled window")
        if self.kind == "erasure" and not self.qubits:
            raise ValueError("erasure fault needs target qubits")
        if self.strike_round >= 0 and self.kind != "radiation":
            raise ValueError("strike_round only applies to radiation faults")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("intensity must lie in [0, 1]")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.root_qubit < 0 or any(q < 0 for q in self.qubits):
            raise ValueError("fault qubits must be non-negative")


@dataclass(frozen=True)
class InjectionTask:
    """One fully-specified campaign point."""

    code: CodeSpec
    fault: FaultSpec = FaultSpec()
    arch: Optional[ArchSpec] = None
    layout: str = "best"
    intrinsic_p: float = 0.01
    rounds: int = 2
    basis: str = "Z"
    #: Decoder configuration (:class:`~repro.decoders.spec.DecoderSpec`);
    #: plain strings like ``"mwpm"`` or ``"union-find:hooks"`` coerce in
    #: ``__post_init__``.  Hook edges and the weighting mode change the
    #: counted errors, so the spec participates in the store key.
    decoder: DecoderSpec = DecoderSpec()
    #: "ancilla" trusts the dedicated parity-readout qubit of Figs. 1-2
    #: (the paper's circuit; late errors stay undetectable); "data"
    #: decodes from the final transversal data measurement instead.
    readout: str = "ancilla"
    #: Simulation backend: "auto" picks the bit-packed Pauli-frame
    #: sampler whenever the task's noise model lowers *exactly* (the
    #: paper's fault semantics preserved in distribution) and falls back
    #: to the batched tableau otherwise; "frames" forces the frame
    #: sampler, accepting the reset-to-mixed approximation at fault
    #: sites where the reference is Z-indefinite; "tableau" pins the
    #: reference backend.  Part of the task identity (each backend draws
    #: its own random stream), so it participates in the store key.
    backend: str = "auto"
    #: Burst-recovery policy applied at decode time: "static" decodes
    #: every shot with the unit-weight graph; "reweight" /
    #: "discard_window" run the streaming strike detector per batch and
    #: adapt flagged shots' decoding (:mod:`repro.detect.recovery`).
    #: Part of the task identity (it changes the counted errors), so it
    #: participates in the store key.
    recovery: str = "static"
    #: Rare-event sampling measure (:mod:`repro.rare`): plain Monte
    #: Carlo by default; "tilt" boosts intrinsic depolarizing sites and
    #: carries per-shot likelihood-ratio weights, "split" resamples the
    #: frame batch toward high-syndrome trajectories at round
    #: boundaries.  The sampler selects the random stream *and* the
    #: estimator, so it participates in the store key.
    sampler: SamplerSpec = SamplerSpec()
    shots: int = 2000
    seed: int = 0
    #: Free-form labels propagated into result rows (e.g. sweep axes).
    tags: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        if self.rounds < 1:
            raise ValueError("a memory experiment needs rounds >= 1")
        if self.fault.strike_round >= self.rounds:
            raise ValueError(
                f"strike_round {self.fault.strike_round} outside the "
                f"{self.rounds}-round experiment")
        if not 0.0 <= self.intrinsic_p <= 1.0:
            raise ValueError("intrinsic_p must lie in [0, 1]")
        if not isinstance(self.decoder, DecoderSpec):
            object.__setattr__(self, "decoder", as_decoder(self.decoder))
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"unknown recovery policy {self.recovery!r}; expected "
                f"one of {RECOVERY_POLICIES}")

    def with_tags(self, **tags: object) -> "InjectionTask":
        merged = dict(self.tags)
        merged.update({k: str(v) for k, v in tags.items()})
        return replace(self, tags=tuple(sorted(merged.items())))

    @property
    def label(self) -> str:
        parts = [self.code.label]
        if self.arch is not None:
            parts.append(f"@{self.arch.label}")
        if self.fault.kind == "radiation":
            if self.fault.strike_round >= 0:
                parts.append(f"rad(q{self.fault.root_qubit},"
                             f"r{self.fault.strike_round}"
                             f"*{self.fault.intensity:g})")
            else:
                parts.append(f"rad(q{self.fault.root_qubit},"
                             f"t{self.fault.time_index})")
        elif self.fault.kind == "erasure":
            parts.append(f"erase({len(self.fault.qubits)}q)")
        parts.append(f"p={self.intrinsic_p:g}")
        if self.recovery != "static":
            parts.append(f"+{self.recovery}")
        if self.sampler.weighted:
            parts.append(f"~{self.sampler.label}")
        return " ".join(parts)


def task_from_dict(d: Mapping[str, Any]) -> InjectionTask:
    """Rebuild an :class:`InjectionTask` from its canonical dict.

    Inverse of :func:`repro.injection.store.canonical_task` after a JSON
    round trip: the wire form is what the campaign service ships to pull
    runners and what ``done`` store records embed, so a reconstructed
    task must hash to the **same task key** as the original.  Values are
    therefore passed through untouched (JSON preserves int-vs-float, and
    a coercion here would silently re-key the point); only JSON's
    structural lossiness is undone — lists become the tuples the frozen
    dataclasses expect.
    """
    code = d["code"]
    fault = dict(d.get("fault") or {})
    if "qubits" in fault:
        fault["qubits"] = tuple(fault["qubits"])
    arch = d.get("arch")
    return InjectionTask(
        code=CodeSpec(kind=code["kind"], distance=tuple(code["distance"])),
        fault=FaultSpec(**fault),
        arch=None if arch is None else ArchSpec(
            name=arch["name"], args=tuple(arch.get("args", ()))),
        layout=d.get("layout", "best"),
        intrinsic_p=d.get("intrinsic_p", 0.01),
        rounds=d.get("rounds", 2),
        basis=d.get("basis", "Z"),
        decoder=as_decoder(d.get("decoder")),
        readout=d.get("readout", "ancilla"),
        backend=d.get("backend", "auto"),
        recovery=d.get("recovery", "static"),
        sampler=as_sampler(d.get("sampler")),
        shots=d.get("shots", 2000),
        seed=d.get("seed", 0),
        tags=tuple((str(k), str(v)) for k, v in d.get("tags", ())),
    )


# ----------------------------------------------------------------------
# Worker-side cached builders (per-process; specs are hashable).
# ----------------------------------------------------------------------

@lru_cache(maxsize=256)
def build_experiment(code: CodeSpec, rounds: int, basis: str
                     ) -> MemoryExperiment:
    return build_memory_experiment(code.build(), rounds=rounds, basis=basis)


@lru_cache(maxsize=256)
def build_arch(arch: ArchSpec) -> ArchitectureGraph:
    return arch.build()
