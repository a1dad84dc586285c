"""Noise-channel abstractions.

A :class:`NoiseChannel` injects stochastic error operations *after*
ideal circuit gates.  A channel is defined by its :class:`SiteTable`
(:meth:`NoiseChannel.site_table`): which kind of fault it injects, after
which gate types, and with what probability on each qubit while each
row of the table is in force.  Both backends read that one definition —
the frame compiler lowers every site of the table to a frame op, and
:meth:`NoiseChannel.apply_batch` interprets it on the batched tableau
through the simulator's masked gate API.  Importance sampling is one
more reading of the same table, :meth:`SiteTable.tilted`.

A channel that cannot be written as a site table overrides
:meth:`~NoiseChannel.apply_batch` instead and runs on the tableau
backend only (:attr:`NoiseChannel.lowers`).
"""

from __future__ import annotations

from typing import (Callable, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

from ..circuits import Gate, GateType
from ..stabilizer.batch import BatchTableauSimulator

#: Site kinds: an X, Y or Z error at ``p/3`` each (Eq. 4), or a
#: non-unitary reset to |0> at ``p`` (Eqs. 5-7, erasures).
DEPOLARIZE = "depolarize"
RESET = "reset"

#: Every operation a physical process can follow (barriers are markers).
ALL_OPERATIONS: FrozenSet[GateType] = frozenset(GateType) - {GateType.BARRIER}


def _first_row() -> int:
    return 0


class SiteTable(NamedTuple):
    """One channel's sites: everything either backend knows of it."""

    #: :data:`DEPOLARIZE` or :data:`RESET`.
    kind: str
    #: ``table[r, q]``: probability of the site after a gate on qubit
    #: ``q`` while row ``r`` is in force; the site exists iff positive.
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
        """The row in force and the qubits of ``gate`` (in gate order)
        that carry a site after it."""
        if gate.gate_type not in self.gates:
            return 0, []
        r = self.row()
        if r is None:
            return 0, []
        probs = self.table[r]
        return r, [q for q in gate.qubits if probs[q] > 0.0]


class NoiseChannel:
    """Base class for stochastic error channels.

    Subclasses implement :meth:`site_table`, or override
    :meth:`apply_batch` for a tableau-only channel.
    """

    #: The table of the current walk (see :meth:`walk_table`), and the
    #: tilt it is read under (:meth:`NoiseModel.begin_run`).
    _walk_table: Optional[SiteTable] = None
    _walk_tilt = None

    def site_table(self, num_qubits: int) -> SiteTable:
        """The channel's sites on a ``num_qubits``-wide register."""
        raise NotImplementedError(
            f"{type(self).__name__} defines no site table")

    def build_table(self, kind: str, probs, num_qubits: int,
                    gates: FrozenSet[GateType] = ALL_OPERATIONS,
                    gating: Tuple = (),
                    row: Callable[[], Optional[int]] = _first_row,
                    draw_certain: bool = True) -> SiteTable:
        """A :class:`SiteTable` from per-qubit probabilities (one row,
        or one per temporal sample), cut or zero-padded to the register;
        ``gating`` is whatever else decides where ``row`` points."""
        probs = np.atleast_2d(np.asarray(probs, dtype=float))
        table = np.zeros((probs.shape[0], num_qubits))
        width = min(num_qubits, probs.shape[1])
        table[:, :width] = probs[:, :width]
        key = (type(self), kind, gates, gating, len(table),
               (table > 0.0).tobytes())
        return SiteTable(kind, table, gates, key, row, draw_certain)

    @property
    def lowers(self) -> bool:
        """Whether the frame compiler may lower the channel: it defines
        :meth:`site_table` and its tableau semantics are the interpreter
        of that table (:meth:`apply_batch` not overridden)."""
        cls = type(self)
        return (cls.site_table is not NoiseChannel.site_table
                and cls.apply_batch is NoiseChannel.apply_batch)

    def walk_table(self, num_qubits: int) -> SiteTable:
        """:meth:`site_table`, built once per walk (:meth:`begin_run`)
        at the widest register asked for so far — :meth:`SiteTable.
        tilted` on a tilted walk."""
        t = self._walk_table
        if t is None or t.table.shape[1] < num_qubits:
            t = self.site_table(num_qubits)
            if self._walk_tilt is not None:
                t = t.tilted(self._walk_tilt)
            self._walk_table = t
        return t

    def triggers_on(self, gate: Gate) -> bool:
        """Whether this channel fires after the given gate: a site of
        the table follows it (a channel without a table: every
        non-barrier operation)."""
        if type(self).site_table is NoiseChannel.site_table:
            return gate.gate_type is not GateType.BARRIER
        width = max(gate.qubits, default=-1) + 1
        return bool(self.walk_table(width).sites_after(gate)[1])

    def apply_batch(self, gate: Gate, sim: BatchTableauSimulator,
                    rng: np.random.Generator) -> None:
        """Inject errors after ``gate`` across the whole batch.

        The tableau interpreter of :meth:`site_table`: per site, in
        gate-qubit order, one ``rng.random(B)`` row, and the fault
        applied on the shots it selects.  A tilted table's sites also
        add their log-likelihood ratios to ``sim.log_weights``.
        """
        t = self.walk_table(sim.n)
        r, qubits = t.sites_after(gate)
        probs = t.table[r]
        B = sim.batch_size
        for q in qubits:
            p = probs[q]
            if t.kind == RESET:
                if p >= 1.0 and not t.draw_certain:
                    sim.reset(q)
                    continue
                mask = rng.random(B) < p
                if mask.any():
                    sim.reset(q, mask)
                continue
            third = p / 3.0
            u = rng.random(B)
            if t.llr is not None:
                hit, miss = t.llr[:, r, q]
                if hit or miss:
                    sim.log_weights += np.where(u < p, hit, miss)
            mx = u < third
            my = (u >= third) & (u < 2 * third)
            mz = (u >= 2 * third) & (u < p)
            if mx.any():
                sim.x_gate(q, mx)
            if my.any():
                sim.y_gate(q, my)
            if mz.any():
                sim.z_gate(q, mz)

    def begin_run(self) -> None:
        """Reset per-run channel state.

        Called once before each walk over the circuit (batched
        execution, frame-program lowering).  Drops the walk's cached
        table; channels whose behaviour depends on circuit *position* —
        e.g. the round-resolved
        :class:`~repro.noise.radiation.RadiationBurst` — also rewind
        their position tracking here.
        """
        self._walk_table = self._walk_tilt = None

    def observe(self, gate: Gate) -> None:
        """Advance position tracking past ``gate``.

        Called exactly once per (non-barrier) gate per run, before
        :meth:`triggers_on`, by every executor walk.  Default: no-op.
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

    def begin_run(self, tilt=None) -> None:
        """Rewind every channel's per-run state (see
        :meth:`NoiseChannel.begin_run`); with ``tilt`` (a tilt
        :class:`~repro.rare.sampler.SamplerSpec`) the walk reads every
        table :meth:`SiteTable.tilted`."""
        for ch in self.channels:
            ch.begin_run()
            ch._walk_tilt = tilt

    def apply_batch(self, gate: Gate, sim: BatchTableauSimulator,
                    rng: np.random.Generator) -> None:
        for ch in self.channels:
            ch.observe(gate)
            if ch.triggers_on(gate):
                ch.apply_batch(gate, sim, rng)

    @classmethod
    def compose(cls, *models: "NoiseModel") -> "NoiseModel":
        out = cls()
        for m in models:
            out.channels.extend(m.channels)
        return out
