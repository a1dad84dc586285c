"""Noise-channel abstractions.

A :class:`NoiseChannel` injects stochastic error operations *after*
ideal circuit gates.  A channel is defined by its :class:`SiteTable`
(:meth:`NoiseChannel.site_table`): which kind of fault it injects, after
which gate types, and with what probability on each qubit while each
row of the table is in force.  A channel *is* its table: the frame
compiler lowers every site of it to one frame op and one noise entry of
the reference stream, which the native batched tableau executes.
Importance sampling is one more reading of the same table,
:meth:`SiteTable.tilted`.
"""

from __future__ import annotations

from typing import (Callable, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

from ..circuits import Gate, GateType

#: Site kinds: an X, Y or Z error at ``p/3`` each (Eq. 4), a non-unitary
#: reset to |0> at ``p`` (Eqs. 5-7, erasures), or one Pauli at ``p`` —
#: a flip table has two columns per qubit, ``2q`` an X flip on ``q`` and
#: ``2q + 1`` a Z flip.
DEPOLARIZE = "depolarize"
RESET = "reset"
FLIP = "flip"

#: Every operation a physical process can follow (barriers are markers).
ALL_OPERATIONS: FrozenSet[GateType] = frozenset(GateType) - {GateType.BARRIER}


def _first_row() -> int:
    return 0


class SiteTable(NamedTuple):
    """One channel's sites: everything either backend knows of it."""

    #: :data:`DEPOLARIZE`, :data:`RESET` or :data:`FLIP`.
    kind: str
    #: ``table[r, c]``: probability of the site of column ``c`` (qubit
    #: ``c``; a flip table's ``c // 2``) after a gate on that qubit while
    #: row ``r`` is in force; the site exists iff positive.
    table: np.ndarray
    #: Gate types the channel's sites follow.
    gates: FrozenSet[GateType]
    #: The channel's part of the site signature: everything that decides
    #: which sites exist (hashable).
    key: Tuple
    #: The row in force at the channel's current circuit position, or
    #: ``None`` while none is.
    row: Callable[[], Optional[int]]
    #: Whether a site of probability 1 still draws its uniforms.  When
    #: False the tableau resets such a site on every shot without
    #: drawing — a stream fact, the fault is the same.
    draw_certain: bool
    #: ``llr[0, r, q]`` / ``llr[1, r, q]``: the log-likelihood ratio a
    #: shot banks where the site fires / does not, on a :meth:`tilted`
    #: table (whose ``table`` then holds the sampling probabilities);
    #: ``None`` on a nominal one.
    llr: Optional[np.ndarray] = None

    def tilted(self, sampler) -> "SiteTable":
        """The table importance-sampled under ``sampler`` (a tilt
        :class:`~repro.rare.sampler.SamplerSpec`): the one definition
        both backends read.

        A depolarize site of nominal probability ``p`` fires at ``q``:
        ``tilt`` times ``p``, at most ``p_cap``, but never below ``p`` —
        a site already past the cap samples at ``p`` rather than
        under-sampling the tail.  The tilt scales the three Pauli
        arms alike, so a shot's likelihood ratio depends only on whether
        the site fired: ``log(p/q)`` if it did, ``log((1-p)/(1-q))`` if
        not, zero where ``q == p``.  A reset table comes back as it is:
        the fault is a radiation campaign's condition, not its rare
        event.
        """
        if self.kind != DEPOLARIZE:
            return self
        p = self.table
        q = np.maximum(p, np.minimum(sampler.tilt * p, sampler.p_cap))
        with np.errstate(divide="ignore", invalid="ignore"):
            llr = np.where(q == p, 0.0, np.stack(
                [np.log(p / q), np.log((1.0 - p) / (1.0 - q))]))
        return self._replace(table=q, llr=llr)

    def sites_after(self, gate: Gate) -> Tuple[int, List[int]]:
        """The row in force and the columns of the sites after ``gate``,
        in gate-qubit order: the qubit, or on a flip table its X column,
        then its Z column."""
        if gate.gate_type not in self.gates:
            return 0, []
        r = self.row()
        if r is None:
            return 0, []
        probs = self.table[r]
        columns = gate.qubits if self.kind != FLIP else [
            c for q in gate.qubits for c in (2 * q, 2 * q + 1)]
        return r, [c for c in columns if probs[c] > 0.0]


class NoiseChannel:
    """Base class for stochastic error channels: subclasses implement
    :meth:`site_table`."""

    def site_table(self, num_qubits: int) -> SiteTable:
        """The channel's sites on a ``num_qubits``-wide register."""
        raise NotImplementedError(
            f"{type(self).__name__} defines no site table")

    def build_table(self, kind: str, probs, num_qubits: int,
                    gates: FrozenSet[GateType] = ALL_OPERATIONS,
                    gating: Tuple = (),
                    row: Callable[[], Optional[int]] = _first_row,
                    draw_certain: bool = True) -> SiteTable:
        """A :class:`SiteTable` from per-column probabilities (one row,
        or one per temporal sample), cut or zero-padded to the register;
        ``gating`` is whatever else decides where ``row`` points."""
        probs = np.atleast_2d(np.asarray(probs, dtype=float))
        table = np.zeros((probs.shape[0],
                          num_qubits * (2 if kind == FLIP else 1)))
        width = min(table.shape[1], probs.shape[1])
        table[:, :width] = probs[:, :width]
        key = (type(self), kind, gates, gating, len(table),
               (table > 0.0).tobytes())
        return SiteTable(kind, table, gates, key, row, draw_certain)

    def begin_run(self) -> None:
        """Reset per-run channel state.

        Called once before each walk over the circuit (frame-program
        lowering).  Channels whose behaviour depends on circuit
        *position* — e.g. the round-resolved
        :class:`~repro.noise.radiation.RadiationBurst` — rewind their
        position tracking here.  Default: no-op.
        """

    def observe(self, gate: Gate) -> None:
        """Advance position tracking past ``gate``.

        Called exactly once per (non-barrier) gate per run, before the
        sites after it are read.  Default: no-op.
        """


class NoiseModel:
    """An ordered collection of channels applied after every gate."""

    def __init__(self, channels: Optional[Iterable[NoiseChannel]] = None) -> None:
        self.channels: List[NoiseChannel] = list(channels or [])

    def add(self, channel: NoiseChannel) -> "NoiseModel":
        self.channels.append(channel)
        return self

    def __iter__(self):
        return iter(self.channels)

    def __len__(self) -> int:
        return len(self.channels)

    def begin_run(self) -> None:
        """Rewind every channel's per-run state (see
        :meth:`NoiseChannel.begin_run`)."""
        for ch in self.channels:
            ch.begin_run()

    @classmethod
    def compose(cls, *models: "NoiseModel") -> "NoiseModel":
        out = cls()
        for m in models:
            out.channels.extend(m.channels)
        return out
