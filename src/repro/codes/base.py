"""Stabilizer-code abstractions and the memory-experiment builder.

A :class:`StabilizerCode` describes geometry only — which qubits are
data / ancilla / readout, which data sets each plaquette checks, and the
logical operator supports.  :func:`build_memory_experiment` turns that
geometry into the exact circuit shape of the paper's Figs. 1-2:

    init -> syndrome round -> logical gate -> syndrome round -> ancilla
    parity readout (optionally followed by transversal data measurement)

Qubit numbering follows the figures: data first, then Z-ancillas
("mz"), then X-ancillas ("mx"), then the readout ancilla.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits import Circuit
from ..stabilizer.pauli import PauliString


class QubitRole(enum.Enum):
    """Function of a physical qubit inside the surface code."""

    DATA = "data"
    STABILIZER_Z = "mz"
    STABILIZER_X = "mx"
    READOUT = "readout"


class StabilizerCode(abc.ABC):
    """Geometry of a CSS surface code.

    Concrete subclasses populate, in ``__init__``:

    * ``data_qubits`` — list of data-qubit indices,
    * ``z_ancillas`` / ``x_ancillas`` — ancilla indices, aligned with
      ``z_plaquettes`` / ``x_plaquettes`` (tuples of data indices),
    * ``readout_qubit`` — the final parity ancilla,
    * ``logical_x_support`` / ``logical_z_support`` — data subsets
      realizing the logical X / Z operators,
    * ``distance`` — the ``(d_Z, d_X)`` tuple of the paper.
    """

    name: str = "code"
    distance: Tuple[int, int] = (1, 1)
    data_qubits: List[int]
    z_ancillas: List[int]
    x_ancillas: List[int]
    z_plaquettes: List[Tuple[int, ...]]
    x_plaquettes: List[Tuple[int, ...]]
    readout_qubit: int
    logical_x_support: Tuple[int, ...]
    logical_z_support: Tuple[int, ...]

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return (len(self.data_qubits) + len(self.z_ancillas)
                + len(self.x_ancillas) + 1)

    def role(self, qubit: int) -> QubitRole:
        if qubit in self.data_qubits:
            return QubitRole.DATA
        if qubit in self.z_ancillas:
            return QubitRole.STABILIZER_Z
        if qubit in self.x_ancillas:
            return QubitRole.STABILIZER_X
        if qubit == self.readout_qubit:
            return QubitRole.READOUT
        raise ValueError(f"qubit {qubit} not part of {self.name}")

    @property
    def measures_per_round(self) -> int:
        """Ancilla measurements per syndrome round — the round-boundary
        marker shared by the burst channel (it counts measurements to
        track rounds) and the detection geometry."""
        return len(self.z_ancillas) + len(self.x_ancillas)

    def qubit_positions(self) -> Optional[Dict[int, Tuple[float, float]]]:
        """Planar qubit coordinates in half-step units, or ``None``.

        Neighbouring data/ancilla qubits sit two half-steps apart, so
        device (graph) distance between qubits ``a`` and ``b`` is
        approximately ``(|dx| + |dy|) / 2``.  Consumers: the detection
        subsystem's strike localisation and model-inverted reweighting
        (:mod:`repro.detect.recovery`), which fall back to coarser
        plaquette-hop distances when a geometry has no embedding.
        """
        return None

    # ------------------------------------------------------------------
    # Pauli views (verification / tests)
    # ------------------------------------------------------------------
    def z_stabilizer_paulis(self) -> List[PauliString]:
        out = []
        for support in self.z_plaquettes:
            p = PauliString.identity(self.num_qubits)
            for q in support:
                p.z[q] = 1
            out.append(p)
        return out

    def x_stabilizer_paulis(self) -> List[PauliString]:
        out = []
        for support in self.x_plaquettes:
            p = PauliString.identity(self.num_qubits)
            for q in support:
                p.x[q] = 1
            out.append(p)
        return out

    def logical_x_pauli(self) -> PauliString:
        p = PauliString.identity(self.num_qubits)
        for q in self.logical_x_support:
            p.x[q] = 1
        return p

    def logical_z_pauli(self) -> PauliString:
        p = PauliString.identity(self.num_qubits)
        for q in self.logical_z_support:
            p.z[q] = 1
        return p

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert the stabilizer-code invariants (used by tests)."""
        stabs = self.z_stabilizer_paulis() + self.x_stabilizer_paulis()
        for i, a in enumerate(stabs):
            for b in stabs[i + 1:]:
                if not a.commutes_with(b):
                    raise AssertionError(
                        f"stabilizers {a.label()} / {b.label()} anticommute")
        lx = self.logical_x_pauli()
        lz = self.logical_z_pauli()
        for s in stabs:
            if not s.commutes_with(lx):
                raise AssertionError(f"logical X anticommutes with {s.label()}")
            if not s.commutes_with(lz):
                raise AssertionError(f"logical Z anticommutes with {s.label()}")
        if lx.commutes_with(lz):
            raise AssertionError("logical X and Z must anticommute")
        if len(self.z_ancillas) != len(self.z_plaquettes):
            raise AssertionError("Z ancilla/plaquette count mismatch")
        if len(self.x_ancillas) != len(self.x_plaquettes):
            raise AssertionError("X ancilla/plaquette count mismatch")

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name} d={self.distance} "
                f"qubits={self.num_qubits}>")


@dataclass
class MemoryExperiment:
    """A built memory-experiment circuit plus its classical-bit layout.

    Attributes
    ----------
    code:
        The code geometry.
    circuit:
        The full circuit (data init, syndrome rounds, logical gate,
        parity readout, optional data measurement).
    basis:
        ``"Z"`` — init |0>, transversal/logical X flip, Z-parity readout
        (the paper's configuration); ``"X"`` — the dual experiment.
    rounds:
        Number of syndrome-extraction rounds (paper: 2).
    z_syndrome_cbits / x_syndrome_cbits:
        ``[round][plaquette] -> cbit``.
    readout_cbit:
        Classical bit holding the raw (pre-decode) logical readout.
    data_cbits:
        ``{data qubit -> cbit}`` for the final transversal measurement,
        or ``None`` when not requested.
    expected_logical:
        Noise-free decoded value (1: the logical flip was applied).
    """

    code: StabilizerCode
    circuit: Circuit
    basis: str
    rounds: int
    z_syndrome_cbits: List[List[int]]
    x_syndrome_cbits: List[List[int]]
    readout_cbit: int
    data_cbits: Optional[Dict[int, int]]
    expected_logical: int = 1

    # -- record accessors ------------------------------------------------
    def raw_readout(self, records: np.ndarray) -> np.ndarray:
        """The raw ancilla parity readout, shape ``(B,)``."""
        return records[:, self.readout_cbit]


def build_memory_experiment(code: StabilizerCode, rounds: int = 2,
                            basis: str = "Z", logical_after: int = 1,
                            include_data_measurement: bool = True
                            ) -> MemoryExperiment:
    """Construct the paper's memory-experiment circuit for ``code``.

    Parameters
    ----------
    code:
        Code geometry (validated by the caller or tests).
    rounds:
        Syndrome-extraction rounds; the paper uses 2.
    basis:
        ``"Z"`` (paper default) or ``"X"`` for the dual experiment.
    logical_after:
        Index of the round *before* which the logical flip is applied
        (1 reproduces Figs. 1-2: stabilise, measure, flip, stabilise,
        measure).
    include_data_measurement:
        Append a transversal data measurement after the parity readout;
        needed by decoders that use a final syndrome reconstruction.
    """
    if basis not in ("Z", "X"):
        raise ValueError("basis must be 'Z' or 'X'")
    if rounds < 1:
        raise ValueError("need at least one syndrome round")
    if not 0 <= logical_after <= rounds:
        raise ValueError("logical_after out of range")

    nq = code.num_qubits
    circ = Circuit(nq, name=f"{code.name}-memory-{basis}")
    # Initialisation: simulator starts in |0...0>; X-basis memory adds H.
    if basis == "X":
        for q in code.data_qubits:
            circ.h(q, tag="init")

    cbit = 0
    z_cbits: List[List[int]] = []
    x_cbits: List[List[int]] = []

    def apply_logical() -> None:
        if basis == "Z":
            for q in code.logical_x_support:
                circ.x(q, tag="logical")
        else:
            for q in code.logical_z_support:
                circ.z(q, tag="logical")

    for r in range(rounds):
        if r == logical_after:
            apply_logical()
        # Stabilisation: Z-plaquettes (data controls ancilla)...
        for anc, support in zip(code.z_ancillas, code.z_plaquettes):
            for dq in support:
                circ.cx(dq, anc)
        # ...then X-plaquettes (Hadamard-conjugated ancilla controls).
        for anc, support in zip(code.x_ancillas, code.x_plaquettes):
            circ.h(anc)
            for dq in support:
                circ.cx(anc, dq)
            circ.h(anc)
        # Syndrome measurement round.
        zc = []
        for anc in code.z_ancillas:
            circ.measure(anc, cbit)
            zc.append(cbit)
            cbit += 1
        xc = []
        for anc in code.x_ancillas:
            circ.measure(anc, cbit)
            xc.append(cbit)
            cbit += 1
        z_cbits.append(zc)
        x_cbits.append(xc)
        if r < rounds - 1:
            for anc in list(code.z_ancillas) + list(code.x_ancillas):
                circ.reset(anc, tag="round-reset")
    if logical_after == rounds:
        apply_logical()

    # Raw logical readout through the dedicated ancilla (Figs. 1-2).
    # The parity CNOTs mutually commute; emitting them from the highest
    # data index down keeps the first one adjacent to the readout
    # ancilla under chain-like layouts, cutting SWAP overhead.
    ro = code.readout_qubit
    if basis == "Z":
        for dq in sorted(code.logical_z_support, reverse=True):
            circ.cx(dq, ro)
        circ.measure(ro, cbit)
    else:
        circ.h(ro)
        for dq in sorted(code.logical_x_support, reverse=True):
            circ.cx(ro, dq)
        circ.h(ro)
        circ.measure(ro, cbit)
    readout_cbit = cbit
    cbit += 1

    data_cbits: Optional[Dict[int, int]] = None
    if include_data_measurement:
        data_cbits = {}
        for dq in code.data_qubits:
            if basis == "X":
                circ.h(dq, tag="readout-basis")
            circ.measure(dq, cbit)
            data_cbits[dq] = cbit
            cbit += 1

    return MemoryExperiment(
        code=code, circuit=circ, basis=basis, rounds=rounds,
        z_syndrome_cbits=z_cbits, x_syndrome_cbits=x_cbits,
        readout_cbit=readout_cbit, data_cbits=data_cbits,
        expected_logical=1,
    )
