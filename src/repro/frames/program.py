"""Reference pass + noise lowering: circuit → frame program.

A :class:`FrameProgram` is the compiled form a
:class:`~repro.frames.simulator.FrameSimulator` executes: the ideal
circuit reduced to frame-propagation opcodes, interleaved with
*lowered* noise sites, plus the reference measurement record the frames
are XORed against — encoded in one int64 ``code`` stream, beside
per-site ``probabilities``.

The **reference pass** runs the circuit once, noiselessly, on a CHP
tableau, recording every measurement's outcome and whether it took the
random-outcome CHP branch (some stabilizer anticommutes with the
measured ``Z``), and answering at every fault-reset site whether the
qubit holds a definite ``Z`` value there, and which.  The one Python
walk of :func:`frame_structure` builds a list of scalar op tuples,
which :func:`fuse_layers` schedules and :func:`encode_ops` writes as
``code`` — the program's one compiled form — and, beside it, a flat
int64 *reference stream*: an opcode (``REF_*``) and its
qubits per gate — the Paulis too, which move reference signs but no
frame — and the *noise entries*, in walk order: one ``REF_QUERY`` per
fault-reset site, one ``REF_DEPOLARIZE`` per depolarize site and one
``REF_FLIP_X`` or ``REF_FLIP_Z`` per flip site, so that the k-th noise
entry is site k.  The reference pass answers every query and skips the
other noise entries; the native tableau executor
(:func:`~repro.noise.executor.run_batch_noisy`'s ``"tableau"``) runs
the whole stream, noise entries included, over a bound program's
probabilities.  Measure and
fault-reset ops carry no answer: encoding leaves their answer words
blank, and the stream's answers are written into ``code`` afterwards.  The
stream runs on ``_kernel.c``'s bit-packed tableau
(``repro_frames_reference``), which draws a random branch's outcome as
``Generator.integers(0, 2)`` does; the tests hold it to a replay of the
stream on the single-shot Python tableau of ``tests/oracles/chp.py`` —
one structure, one generator state.

Random-branch measurements are still sampled exactly by the frame
backend — the simulator's Z-frame randomisation at initialisation,
reset and measurement supplies per-shot randomness with the correct
cross-measurement correlations — but the flags are kept as program
metadata: a program with *no* random branches reproduces the reference
record bit-for-bit on noiseless shots, while any random branch makes
the record (including later measurements whose CHP branch is
deterministic but whose value is conditioned on the earlier collapse)
exact in distribution only.

**Noise lowering** reads every channel's
:meth:`~repro.noise.base.NoiseChannel.site_table` — the one definition
the batched tableau executes too — and turns each site into a
bit-packed sampler:

* ``depolarize`` sites (:class:`~repro.noise.depolarizing.DepolarizingNoise`)
  → ``OP_DEPOLARIZE`` (exact: Pauli channels commute with frame
  propagation).
* ``reset`` sites (:class:`~repro.noise.erasure.ErasureChannel`,
  :class:`~repro.noise.radiation.RadiationChannel` and
  :class:`~repro.noise.radiation.RadiationBurst` — the paper's Eqs.
  5-7 reset faults) → ``OP_RESET_NOISE`` with a per-site probability.
  At sites where the reference state holds the struck
  qubit in a definite ``Z`` eigenstate (always true for repetition-code
  memories, and for ancillas between their reset and re-entanglement)
  the lowering is *exact*: the fault forces the frame's X component to
  the reference eigenvalue, mapping the reference state onto |0>.
  Elsewhere the reset is lowered to a full Pauli twirl of the qubit —
  a reset to the maximally mixed state, i.e. the paper's reset-to-|0>
  composed with an extra 50% X flip.  Site counts for both cases are
  recorded on the program so the approximation is observable.
* ``flip`` sites (:class:`~repro.logical.LogicalFaultChannel`) →
  ``OP_FLIP``: ``u < p`` toggles the frame's X (or Z) bit (exact).

**Depolarize draws.**  A depolarize site draws its own uniform row —
one double per shot, ``u < p`` fires it — where it stands in the
program; a fused layer draws its rows in site order.  No draw is shared
between ops, so the executors run any op range of a program
(``run_packed``'s ``start``/``stop``, the splitting sampler's
segments) exactly as the whole program runs those ops.

**Structure and binding.**  Everything above depends on the noise
model only through *which sites fire* — never on how probable they
are — so compilation is two steps.  :func:`frame_structure` does the
expensive one: the reference pass, the Z-determinacy of every fault
reset site, fusion and encoding, into a ``code`` whose noise ops carry
*site numbers* — built once, holding no probability.
:meth:`FrameStructure.bind` does the cheap one: it reads every site's
probability off a noise model with the same site signature
(:func:`site_signature`) in one gather (``site_source``) into the
program's ``probabilities``; the program shares ``code`` and every
index array — read-only — with all programs bound from the
structure.  :func:`compile_frame_program`
is the two composed; a sweep whose points share a circuit and differ
in strike root, time sample or ``p`` compiles one structure and binds
it per point (:func:`repro.injection.campaign._frame_program`).

**Reseeding.**  Of a structure, only the reference pass's *answer
values* depend on its seed: in CHP a random outcome sets the
tableau's phase bits alone, while the walk, fusion's schedule, the
site rows, which measurements take the random branch, which fault
resets are Z-indefinite and whether the pass draws at all read only
the x bits.  So the answers live in ``code`` alone — a measure's
reference bit and a fault reset's ``x_value`` are words of the stream,
not operands of an op — and :func:`frame_structure` notes each
answer's word (``answer_slots``) and writes the answers through the
path :meth:`FrameStructure.reseed` takes for any later seed: the pass
runs again, and only ``code``, ``reference_record``, ``random_cbits``
and the reset counts are rebuilt; every other array is shared.  A reseeded
structure is the one a compile at that seed gives, down to the
generator's state; a sweep over task seeds on one circuit compiles
once and reseeds per point.  An importance-
sampling tilt is a binding too: ``bind(noise, tilt=sampler)`` reads
the tables :meth:`~repro.noise.base.SiteTable.tilted` — the definition
the tableau executor reads — and gathers each site's
log-likelihood ratios into ``log_ratios`` beside its tilted
probability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..circuits import Circuit, GateType
from ..noise.base import DEPOLARIZE, FLIP, NoiseModel, SiteTable

#: Frame-propagation opcodes (ints for cheap dispatch).  A scalar op is
#: the tuple the walk builds; its words in ``code`` are the tuple's, plus
#: an answer word for a measure and a fault reset.
OP_H = 0            # (OP_H, qubit)
OP_S = 1            # (OP_S, qubit) — S and SDG propagate frames identically
OP_CX = 2           # (OP_CX, control, target)
OP_CZ = 3           # (OP_CZ, a, b)
OP_SWAP = 4         # (OP_SWAP, a, b)
OP_MEASURE = 5      # (OP_MEASURE, qubit, cbit), then its reference bit
OP_RESET = 6        # (OP_RESET, qubit) — circuit reset (in the reference too)
OP_DEPOLARIZE = 7   # (OP_DEPOLARIZE, qubit, site)
OP_RESET_NOISE = 8  # (OP_RESET_NOISE, qubit, site), then its x_value
OP_FLIP = 9         # (OP_FLIP, qubit, site, 0 for X or 1 for Z)

#: Fused-layer opcodes: a unit of ``k`` qubit-disjoint scalar ops of one
#: opcode, run as one vectorised (k, W) kernel sweep.  Its words are the
#: layer opcode, ``k``, then each operand column of the scalar ops in
#: turn (``k`` words each; a measure layer's reference bits last).  See
#: :func:`fuse_layers` for why fused programs sample bit-identically to
#: their scalar form.
OP_H_LAYER = 10          # qubits
OP_S_LAYER = 11          # qubits
OP_CX_LAYER = 12         # controls, targets
OP_CZ_LAYER = 13         # a, b
OP_SWAP_LAYER = 14       # a, b
OP_MEASURE_LAYER = 15    # qubits, cbits, reference bits
OP_RESET_LAYER = 16      # qubits
OP_DEPOLARIZE_LAYER = 17  # qubits, sites

#: Scalar opcode → its fused-layer twin.
_LAYER_OF = {OP_H: OP_H_LAYER, OP_S: OP_S_LAYER, OP_CX: OP_CX_LAYER,
             OP_CZ: OP_CZ_LAYER, OP_SWAP: OP_SWAP_LAYER,
             OP_MEASURE: OP_MEASURE_LAYER, OP_RESET: OP_RESET_LAYER,
             OP_DEPOLARIZE: OP_DEPOLARIZE_LAYER}

#: Opcode → profiler kernel-bucket name (:mod:`repro.obs.prof`):
#: scalar kinds plus their ``.fused`` layer twins, so the profile
#: separates fused-layer throughput from scalar stragglers.
OP_KIND = {OP_H: "h", OP_S: "s", OP_CX: "cx", OP_CZ: "cz",
           OP_SWAP: "swap", OP_MEASURE: "measure", OP_RESET: "reset",
           OP_DEPOLARIZE: "depolarize", OP_RESET_NOISE: "reset_noise",
           OP_FLIP: "flip", OP_H_LAYER: "h.fused", OP_S_LAYER: "s.fused",
           OP_CX_LAYER: "cx.fused", OP_CZ_LAYER: "cz.fused",
           OP_SWAP_LAYER: "swap.fused",
           OP_MEASURE_LAYER: "measure.fused",
           OP_RESET_LAYER: "reset.fused",
           OP_DEPOLARIZE_LAYER: "depolarize.fused"}

#: Opcodes whose execution consumes the shared rng stream.  Their
#: mutual order is a hard scheduling constraint: permuting any two
#: would hand each the other's draws.
_RNG_OPS = frozenset({OP_MEASURE, OP_RESET, OP_DEPOLARIZE, OP_RESET_NOISE,
                      OP_FLIP})

#: Qubit operands per opcode (slice of the op tuple holding qubits).
_QUBIT_ARITY = {OP_H: 1, OP_S: 1, OP_CX: 2, OP_CZ: 2, OP_SWAP: 2,
                OP_MEASURE: 1, OP_RESET: 1, OP_DEPOLARIZE: 1,
                OP_RESET_NOISE: 1, OP_FLIP: 1}

#: Opcodes whose second operand is a site number.
_SITE_OPS = frozenset({OP_DEPOLARIZE, OP_RESET_NOISE, OP_FLIP})

_OBS_COMPILES = obs.counter("frames.compiles")
_OBS_BINDS = obs.counter("frames.binds")
_OBS_RESEEDS = obs.counter("frames.reseeds")


@dataclass
class FrameProgram:
    """Compiled frame program: a structure's ``code``, plus this
    binding's per-site :attr:`probabilities` (and, tilted,
    :attr:`log_ratios`).

    Everything but those per-binding arrays is the :attr:`structure`'s
    (``code``, its op offsets and the reference arrays of its seed), shared
    with every other program bound from it: treat it as read-only.
    """

    num_qubits: int
    num_cbits: int
    #: The structure's :attr:`~FrameStructure.ops`: the word of
    #: :attr:`code` each op starts at.  ``len(ops)`` is the op count,
    #: and ``run_packed``'s op ranges index it.
    ops: np.ndarray
    #: Reference measurement outcomes, indexed by cbit.
    reference_record: np.ndarray
    #: cbits whose reference measurement took the random-outcome branch.
    #: Any entry here demotes the whole record from bit-exact (vs the
    #: reference, noiselessly) to exact-in-distribution: later
    #: deterministic measurements may be conditioned on these collapses.
    random_cbits: Tuple[int, ...] = ()
    #: Reset-fault sites lowered exactly (reference Z-determinate).
    exact_reset_sites: int = 0
    #: Reset-fault sites lowered to a Pauli twirl (reset-to-mixed).
    twirled_reset_sites: int = 0
    #: Channels the program lowered (informational).
    num_channels: int = 0
    #: Layer ops among :attr:`ops` (feeds ``frames.fused_ops``).
    fused_ops: int = 0
    #: The structure the program was bound from, which binds other noise
    #: models and tilts on its circuit too — for another task seed as it
    #: stands when it is not :attr:`~FrameStructure.seeded`, else after
    #: a :meth:`~FrameStructure.reseed` at that seed.
    structure: Optional["FrameStructure"] = None
    #: What the native executor runs: the structure's :func:`encode_ops`
    #: stream with its seed's answers written in (shared), and this
    #: binding's per-site probabilities.  ``None`` on a program put
    #: together by hand, which the simulator then refuses.
    code: Optional[np.ndarray] = None
    probabilities: Optional[np.ndarray] = None
    #: ``(2, sites)``: each site's log-likelihood ratios where it fires
    #: / does not, on a program bound with a tilt that moves some site;
    #: ``None`` on a plain one.
    log_ratios: Optional[np.ndarray] = None

    @property
    def deterministic_reference(self) -> bool:
        """True when every reference measurement was deterministic, so a
        noiseless frame run reproduces the reference record bit-exactly."""
        return not self.random_cbits

    @property
    def exact_noise(self) -> bool:
        """True when every lowered noise site is distribution-exact."""
        return self.twirled_reset_sites == 0

    def __repr__(self) -> str:
        return (f"FrameProgram(n={self.num_qubits}, cbits={self.num_cbits}, "
                f"ops={len(self.ops)}, random_measures="
                f"{len(self.random_cbits)}, reset_sites="
                f"{self.exact_reset_sites}+{self.twirled_reset_sites}t)")


@dataclass(frozen=True, eq=False)
class FrameStructure:
    """The part of a frame program every noise model with one site
    signature shares; :meth:`bind` makes it a :class:`FrameProgram`."""

    num_qubits: int
    num_cbits: int
    #: Per op, its first word in :attr:`code` (int64, read-only), from
    #: :func:`encode_ops`: seed- and binding-free, so every
    #: :meth:`reseed` and every :meth:`bind` shares it.
    ops: np.ndarray
    #: Per site, where its probability sits in the noise model's
    #: concatenated, flattened channel site tables (read-only): what
    #: :meth:`bind` gathers.
    site_source: np.ndarray
    #: :func:`site_signature` of the noise model compiled against.
    signature: Tuple
    reference_record: np.ndarray
    random_cbits: Tuple[int, ...]
    #: Whether the reference pass drew from its rng (a random-branch
    #: measurement or circuit reset).  If not, the structure is the same
    #: for every seed and may be bound for any task on the circuit; if
    #: so, :meth:`reseed` gives another seed's.
    seeded: bool
    exact_reset_sites: int
    twirled_reset_sites: int
    fused_ops: int
    #: The :func:`encode_ops` stream with this seed's answers written
    #: in, shared by every bound program: noise ops carry site numbers.
    code: np.ndarray
    #: The int64 reference stream the walk wrote (read-only): what
    #: :meth:`reseed` runs the reference pass over again, and what the
    #: native tableau executes — its noise entries are the sites in
    #: order.
    reference_stream: np.ndarray
    #: ``(answers, 2)`` int64, one row per measure and fault-reset
    #: answer in stream order: its word in :attr:`code` and its cbit
    #: (-1 for a fault reset).
    answer_slots: np.ndarray
    #: Per site, its table's :attr:`~repro.noise.base.SiteTable.
    #: draw_certain` (uint8, read-only): whether the tableau draws at a
    #: reset site of probability 1.
    draw_certain: np.ndarray

    def reseed(self, rng: Union[np.random.Generator, int, None]
               ) -> "FrameStructure":
        """The structure :func:`frame_structure` compiles at ``rng``.

        Only the reference pass runs again — over
        :attr:`reference_stream` — because every other part of a
        structure is seed-free: a random CHP outcome sets phase bits
        only, and the walk, fusion's schedule, the site rows, which
        measurements take the random branch and which fault resets are
        Z-indefinite all read the tableau's x bits.  The answers land in
        a copy of :attr:`code` and in :attr:`reference_record`,
        :attr:`random_cbits` and the reset counts; :attr:`ops` and every
        other array are shared.  ``rng`` ends where a fresh compile
        leaves it.
        """
        _OBS_RESEEDS.inc()
        return self._answered(rng)

    def _answered(self, rng) -> "FrameStructure":
        """Run the reference pass and write its answers: the one path
        of the first compile and of every :meth:`reseed`."""
        from . import _native   # first compile, not ``import repro``

        if isinstance(rng, (int, np.integer)) or rng is None:
            rng = np.random.default_rng(rng)
        results, drew = _native.kernel().reference(self.reference_stream,
                                                   self.num_qubits, rng)
        word, cbit = self.answer_slots.T.tolist()
        record = [0] * self.num_cbits
        random_cbits: List[int] = []
        twirled = 0
        # Per answer, its code word: a measurement's outcome bit, a
        # fault reset's x_value (0, 1 or _INDEFINITE).
        answers: List[int] = []
        for c, value in zip(cbit, results):
            if c < 0:
                twirled += value == _INDEFINITE
                answers.append(value)
                continue
            # In program order, so a cbit's last measurement wins.
            answers.append(value & 1)
            record[c] = value & 1
            if value >> 1:
                random_cbits.append(c)
        code = self.code.copy()
        code[word] = answers
        code.flags.writeable = False
        ref = np.array(record, dtype=np.uint8)
        ref.flags.writeable = False
        return replace(
            self, reference_record=ref, random_cbits=tuple(random_cbits),
            seeded=drew, exact_reset_sites=cbit.count(-1) - twirled,
            twirled_reset_sites=twirled, code=code)

    def bind(self, noise: Optional[NoiseModel], tilt=None) -> FrameProgram:
        """The program of ``noise`` on this structure: every site's
        probability gathered off ``noise``'s site tables into
        :attr:`FrameProgram.probabilities`; ``code`` and :attr:`ops`
        are this structure's.

        ``noise`` must fire at the sites the structure was compiled
        for (equal :func:`site_signature`); the result then equals a
        fresh compile of ``noise``.

        With ``tilt`` (a tilt :class:`~repro.rare.sampler.SamplerSpec`)
        the tables are read :meth:`~repro.noise.base.SiteTable.tilted`:
        the sites carry their tilted probabilities, and every site's
        ``(llr_hit, llr_miss)`` is gathered into
        :attr:`FrameProgram.log_ratios` — unless the tilt moves no site,
        which binds the plain program.
        """
        tables = _site_tables(noise, self.num_qubits)
        if tuple(t.key for t in tables) != self.signature:
            raise ValueError("noise model fires at other sites than the "
                             "structure was compiled for")
        if tilt is not None:
            tables = [t.tilted(tilt) for t in tables]
        p = np.zeros(0)
        llr = None
        if self.site_source.size:
            p = np.concatenate(
                [t.table.ravel() for t in tables]).take(self.site_source)
            if tilt is not None:
                llr = np.concatenate(
                    [np.zeros((2, t.table.size)) if t.llr is None
                     else t.llr.reshape(2, -1) for t in tables],
                    axis=1).take(self.site_source, axis=1)
                if not llr.any():
                    llr = None
        _OBS_BINDS.inc()
        return FrameProgram(
            num_qubits=self.num_qubits,
            num_cbits=self.num_cbits,
            ops=self.ops,
            reference_record=self.reference_record,
            random_cbits=self.random_cbits,
            exact_reset_sites=self.exact_reset_sites,
            twirled_reset_sites=self.twirled_reset_sites,
            num_channels=len(self.signature),
            fused_ops=self.fused_ops,
            structure=self,
            code=self.code,
            probabilities=p,
            log_ratios=llr,
        )


#: Smallest group worth a fused rng layer: below this the layer kernel's
#: fixed overhead (2-D buffers, row loops) beats the scalar ops it
#: replaces, measured on the d=5 noisy memory program.
_MIN_RNG_LAYER = 4


def fuse_layers(ops: List[Tuple]) -> Iterator[List[Tuple]]:
    """Reschedule a scalar structure op list (noise ops carrying site
    numbers) into *units* for :func:`encode_ops`: lists of scalar ops,
    where a unit of more than one op is a fused ``(k, W)`` kernel sweep.
    The units are yielded as they are scheduled, so each is written
    and dropped before the next is built.

    Per-gate execution costs one numpy dispatch per frame row — the
    dominant cost at campaign block sizes, where a row is all of eight
    words.  This pass list-schedules the ops under the only two
    constraints the frame semantics actually impose:

    * **per-qubit order** — ops touching a common qubit never reorder
      (ops on disjoint qubits always commute as frame maps);
    * **rng order** — ops that consume the shared rng stream (measure,
      reset, depolarize, fault reset, flip) keep their exact mutual order, so
      every draw lands in the same op as in the scalar program.

    Ready ops of one opcode whose qubits are pairwise disjoint are
    emitted as a single fused layer: a whole stabilisation sweep of CX
    legs, a round's ancilla measurements, or the depolarize sites
    behind them collapse into one vectorised op each.  Fused rng layers
    draw their samples in the scalar order (``Generator.bytes`` and
    ``Generator.random`` stream identically whether pulled per row or
    in one block), so a fused program's records
    are **bit-identical** to the unfused program's — fusion is pure
    scheduling, not approximation.
    """
    n = len(ops)
    succ: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    last_on_qubit: dict = {}
    last_rng = -1
    for i, op in enumerate(ops):
        code = op[0]
        for q in op[1:1 + _QUBIT_ARITY[code]]:
            prev = last_on_qubit.get(q, -1)
            if prev >= 0:
                succ[prev].append(i)
                indeg[i] += 1
            last_on_qubit[q] = i
        if code in _RNG_OPS:
            if last_rng >= 0:
                succ[last_rng].append(i)
                indeg[i] += 1
            last_rng = i

    ready_cliff: List[int] = []   # program-order indices, kept sorted
    ready_rng = -1                # at most one (the rng chain head)

    def mark_ready(i: int) -> None:
        nonlocal ready_rng
        if ops[i][0] in _RNG_OPS:
            ready_rng = i
        else:
            ready_cliff.append(i)

    def release(i: int) -> None:
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                mark_ready(j)

    for i in range(n):
        if indeg[i] == 0:
            mark_ready(i)

    emitted = 0
    while emitted < n:
        if ready_cliff:
            batch, ready_cliff = sorted(ready_cliff), []
            by_code: dict = {}
            for i in batch:
                by_code.setdefault(ops[i][0], []).append(ops[i])
            yield from by_code.values()
            emitted += len(batch)
            for i in batch:
                release(i)
        else:
            i = ready_rng
            ready_rng = -1
            code = ops[i][0]
            group = [ops[i]]
            used = set(ops[i][1:1 + _QUBIT_ARITY[code]])
            emitted += 1
            release(i)
            # Extend along the rng chain while the next op is ready,
            # same-opcode, and qubit-disjoint with the group (fault
            # resets, whose draw count is data-dependent, and flips
            # stay scalar).
            while (code in _LAYER_OF and ready_rng >= 0
                   and ops[ready_rng][0] == code):
                nxt = ops[ready_rng]
                nq = nxt[1:1 + _QUBIT_ARITY[code]]
                if any(q in used for q in nq):
                    break
                used.update(nq)
                group.append(nxt)
                j = ready_rng
                ready_rng = -1
                emitted += 1
                release(j)
            # A unit per op where a layer of rng ops would not pay.
            if 1 < len(group) < _MIN_RNG_LAYER:
                yield from ([op] for op in group)
            else:
                yield group


#: Words in front of an :func:`encode_ops` stream's first op.
CODE_HEADER = 3


def encode_ops(units: Iterable[Sequence[Tuple]], num_qubits: int,
               num_cbits: int, num_sites: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Write :func:`fuse_layers`' units (noise ops carrying site
    numbers) as the int64 stream ``_kernel.c`` executes: the one
    emitter of ``code``.

    The stream opens with the three bounds it was checked against —
    ``num_qubits, num_cbits, num_sites`` (:data:`CODE_HEADER` words) —
    which the simulator holds against its own arrays before every
    run.  Then per unit one op: a unit of one op is that op's tuple;
    a longer unit is a layer — its ``_LAYER_OF`` opcode, its width
    ``k``, then each operand column of its ops in turn.  A measure
    (each element of a measure layer) and a fault reset also get an
    answer word — the reference bit, the ``x_value`` — written blank
    (0) here and filled in by :meth:`FrameStructure.reseed`'s path.

    Every qubit, cbit and site operand is checked against its range
    here, because the kernel indexes unchecked: an operand out of range
    is an ``IndexError`` before any run.

    Returns ``code``; the first word of each op (:attr:`FrameStructure.
    ops`); the :attr:`FrameStructure.answer_slots`, one row per answer
    word in op order; and the number of layers — all read-only.
    """
    out: List[int] = [num_qubits, num_cbits, num_sites]
    starts: List[int] = []
    slots: List[Tuple[int, int]] = []
    qubits: List[int] = []
    cbits: List[int] = []
    sites: List[int] = []
    fused = 0
    for unit in units:
        op = unit[0]
        code = op[0]
        k = len(unit)
        starts.append(len(out))
        if k == 1:
            out += op
            operands = op[1:]
        elif code in _LAYER_OF and all(o[0] == code for o in unit):
            operands = [w for column in list(zip(*unit))[1:]
                        for w in column]
            out += (_LAYER_OF[code], k)
            out += operands
            fused += 1
        else:
            raise ValueError(f"no layer encoding for unit {unit!r}")
        arity = _QUBIT_ARITY.get(code)
        if arity is None:
            raise ValueError(f"no native encoding for opcode {code!r}")
        qubits += operands[:k * arity]
        if code == OP_MEASURE:
            cbits += operands[k:2 * k]
            first = len(out)
            out += [0] * k
            slots += zip(range(first, first + k), operands[k:2 * k])
        elif code in _SITE_OPS:
            sites += operands[k:2 * k]
            if code == OP_RESET_NOISE:
                slots.append((len(out), -1))
                out.append(0)
    for what, values, bound in (("qubit", qubits, num_qubits),
                                ("cbit", cbits, num_cbits),
                                ("site", sites, num_sites)):
        if values and not 0 <= min(values) <= max(values) < bound:
            raise IndexError(f"{what} operand outside [0, {bound}): "
                             f"{min(values)}..{max(values)}")
    arrays = (np.array(out, dtype=np.int64),
              np.array(starts, dtype=np.int64),
              np.array(slots, dtype=np.int64).reshape(-1, 2))
    for array in arrays:
        array.flags.writeable = False
    return arrays + (fused,)


#: Reference-stream opcodes (``_kernel.c``'s ``REF_*``): each entry is
#: the opcode and its qubits — two for CX, CZ and SWAP, one otherwise.
#: ``REF_QUERY`` and on are the noise entries, one per fault-reset,
#: depolarize and X or Z flip site: the k-th of them is site k.
REF_X, REF_Y, REF_Z, REF_H, REF_S, REF_SDG, REF_CX, REF_CZ, REF_SWAP, \
    REF_RESET, REF_MEASURE, REF_QUERY, REF_DEPOLARIZE, REF_FLIP_X, \
    REF_FLIP_Z = range(15)

#: Gate type → (reference opcode or ``None``, frame opcode or ``None``).
_LOWERING = {
    GateType.I: (None, None),
    GateType.X: (REF_X, None), GateType.Y: (REF_Y, None),
    GateType.Z: (REF_Z, None), GateType.H: (REF_H, OP_H),
    GateType.S: (REF_S, OP_S), GateType.SDG: (REF_SDG, OP_S),
    GateType.CX: (REF_CX, OP_CX), GateType.CZ: (REF_CZ, OP_CZ),
    GateType.SWAP: (REF_SWAP, OP_SWAP), GateType.RESET: (REF_RESET, OP_RESET),
    GateType.MEASURE: (REF_MEASURE, OP_MEASURE),
}

#: Answer to a ``REF_QUERY`` on a Z-indefinite qubit — and so the
#: ``x_value`` word of such a fault reset in ``code``, which the kernel
#: lowers to a twirl.
_INDEFINITE = 2


def _site_tables(noise: Optional[NoiseModel], num_qubits: int
                 ) -> List[SiteTable]:
    """Every channel's :meth:`~repro.noise.base.NoiseChannel.site_table`
    — the one place lowering (which sites exist), binding (their
    probabilities) and the memo key read a channel from."""
    if noise is None:
        return []
    return [channel.site_table(num_qubits) for channel in noise]


def site_signature(noise: Optional[NoiseModel], num_qubits: int) -> Tuple:
    """Everything a :class:`FrameStructure` depends on ``noise``
    through: per channel, its type and the sites it fires at.  Models
    with equal signatures on one circuit share a structure; hashable."""
    return tuple(t.key for t in _site_tables(noise, num_qubits))


def frame_structure(circuit: Circuit,
                    noise: Optional[NoiseModel] = None,
                    rng: Union[np.random.Generator, int, None] = None
                    ) -> FrameStructure:
    """Run the reference pass and schedule ``noise``'s sites: the
    expensive, probability-free half of :func:`compile_frame_program`
    (same arguments, same errors).

    Encoding leaves every answer word of ``code`` blank, noting where
    each goes; the answers are then
    written the way :meth:`FrameStructure.reseed` writes another
    seed's.
    """
    n = circuit.num_qubits
    tables = _site_tables(noise, n)
    # Where each table starts in the flat concatenation of them all.
    starts = np.cumsum([0] + [t.table.size for t in tables]).tolist()
    if n <= 0:
        raise ValueError("need at least one qubit")

    num_cbits = max(circuit.num_cbits, 1)
    ops: List[Tuple] = []
    stream: List[int] = []
    site_source: List[int] = []
    draw_certain: List[bool] = []
    if noise is not None:
        noise.begin_run()

    for gate in circuit:
        gt = gate.gate_type
        if gt is GateType.BARRIER:
            continue
        ref_op, frame_op = _LOWERING[gt]
        if ref_op is not None:
            stream.append(ref_op)
            stream.extend(gate.qubits)
        if frame_op == OP_MEASURE:
            ops.append((OP_MEASURE, gate.qubits[0], gate.cbit))
        elif frame_op is not None:
            ops.append((frame_op,) + gate.qubits)
        if noise is None:
            continue
        for channel, t, start in zip(noise, tables, starts):
            channel.observe(gate)
            r, columns = t.sites_after(gate)
            for c in columns:
                site = len(site_source)
                site_source.append(start + r * t.table.shape[1] + c)
                draw_certain.append(t.draw_certain)
                if t.kind == FLIP:
                    q, axis = divmod(c, 2)
                    stream.extend((REF_FLIP_X + axis, q))
                    ops.append((OP_FLIP, q, site, axis))
                elif t.kind == DEPOLARIZE:
                    stream.extend((REF_DEPOLARIZE, c))
                    ops.append((OP_DEPOLARIZE, c, site))
                else:
                    stream.extend((REF_QUERY, c))
                    ops.append((OP_RESET_NOISE, c, site))

    # Fusion keeps the mutual order of the rng ops, so the answer words
    # stay in stream order.  Every reseed and bound program shares these
    # arrays.
    code, starts, answer_slots, fused = encode_ops(
        fuse_layers(ops), n, num_cbits, len(site_source))
    reference_stream = np.array(stream, dtype=np.int64)
    reference_stream.flags.writeable = False
    source = np.array(site_source, dtype=np.intp)
    source.flags.writeable = False
    certain = np.array(draw_certain, dtype=np.uint8)
    certain.flags.writeable = False
    blank = FrameStructure(
        num_qubits=n,
        num_cbits=num_cbits,
        ops=starts,
        site_source=source,
        signature=tuple(t.key for t in tables),
        reference_record=np.zeros(num_cbits, dtype=np.uint8),
        random_cbits=(),
        seeded=False,
        exact_reset_sites=0,
        twirled_reset_sites=0,
        fused_ops=fused,
        code=code,
        reference_stream=reference_stream,
        answer_slots=answer_slots,
        draw_certain=certain,
    )
    structure = blank._answered(rng)
    _OBS_COMPILES.inc()
    return structure


def compile_frame_program(circuit: Circuit,
                          noise: Optional[NoiseModel] = None,
                          rng: Union[np.random.Generator, int, None] = None,
                          tilt=None) -> FrameProgram:
    """Run the reference pass and lower ``noise`` into a frame program:
    :func:`frame_structure`, then :meth:`FrameStructure.bind` (with
    ``tilt``, if given).

    ``rng`` seeds the reference pass's random measurement branches (the
    compiled program embeds that one reference sample, so the same seed
    always yields the same program).  A channel without a site table
    raises :class:`NotImplementedError`.
    """
    return frame_structure(circuit, noise, rng).bind(noise, tilt)
