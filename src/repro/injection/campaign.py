"""Fault-injection campaign engine.

Executes :class:`~repro.injection.spec.InjectionTask` points: build the
memory experiment, transpile it onto the task's architecture, attach the
intrinsic noise model and the specified fault, run the batched noisy
simulation, decode, count logical errors.

Execution is **chunked and streaming**: a task's shot budget is
partitioned into canonical simulation blocks of :data:`SIM_BLOCK` shots,
each seeded independently from the task seed via ``SeedSequence``
(:func:`repro.util.rng.block_seed`).  The block is the only unit of
*randomness* — every block draws from its own generator, whatever runs
beside it — and the *span*, up to :data:`WIDE_BLOCKS` consecutive
blocks, the unit of execution: on the frame backend a span is one wide
simulator run with a lane per block and one ``decode_batch`` call
(:func:`execute_block`), so per-op dispatch is paid once per span
while each block's records are those of the block run alone.  So

* memory stays bounded at any shot count (one span of records at a
  time, counts aggregated as scalars),
* a run's counts are **bit-identical however the blocks are grouped**
  into spans and chunks — single-chunk, streamed,
  interrupted-and-resumed, serial or process-parallel all agree,
* adaptive policies can stop between chunks without perturbing the
  sampled stream of any shot that did run.

Chunks (whole numbers of blocks, :data:`DEFAULT_CHUNK_SHOTS` shots by
default) are the checkpoint/decision granularity: after each chunk the
engine can persist progress to a :class:`~repro.injection.store.
CampaignStore` and ask an :class:`~repro.injection.adaptive.
AdaptivePolicy` whether the point is resolved.
"""

from __future__ import annotations

import dataclasses
import time
from functools import lru_cache
from typing import (Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .. import obs
from ..codes.base import MemoryExperiment
from ..frames import (
    FrameProgram,
    FrameSimulator,
    FrameStructure,
    compile_frame_program,
    site_signature,
)
from ..noise import (
    DepolarizingNoise,
    ErasureChannel,
    NoiseModel,
    RadiationEvent,
    run_batch_noisy,
)
from ..decoders import DecoderSpec, SyndromeBatch, decoder_for
from ..rare.sampler import SamplerSpec
from ..rare.stats import WeightStats
from ..transpile import transpile
from ..util.rng import block_seed, frame_ref_seed, task_seed
from .adaptive import AdaptivePolicy
from .results import (SIM_BLOCK, ZERO_PRIOR, ChunkResult, InjectionResult,
                      ResultSet)
from .spec import ArchSpec, CodeSpec, InjectionTask, build_arch, build_experiment
from .store import CampaignStore

#: Default chunk (checkpoint / adaptive-decision) granularity, in shots.
#: Rounded up to a whole number of blocks.
DEFAULT_CHUNK_SHOTS = 2 * SIM_BLOCK

#: Canonical blocks executed together as one span — the lanes of one
#: wide frame execution (:func:`execute_block`).  Scheduling only: each
#: block still draws from its own seed, so counts do not depend on it.
#: Fixed by the width sweep in ``benchmarks/bench_frames.py``: at 8 a
#: frame row is 64 words and per-op dispatch is amortised; 16 adds
#: little and doubles what an adaptive stop or a kill can waste.
WIDE_BLOCKS = 8

#: Hot-path metric handles, cached once (obs.reset zeroes them in
#: place, so these stay valid across resets and forks).  Incremented at
#: block/chunk granularity only — never per shot.
_OBS_SHOTS = obs.counter("engine.shots")
_OBS_ERRORS = obs.counter("engine.errors")
_OBS_BLOCKS = obs.counter("engine.blocks")
_OBS_CHUNKS = obs.counter("engine.chunks")
_OBS_FALLBACKS = obs.counter("engine.backend_fallbacks")


@lru_cache(maxsize=256)
def _prepared(code: CodeSpec, rounds: int, basis: str,
              arch: Optional[ArchSpec], layout: str,
              decoder_spec: Union[DecoderSpec, str],
              readout: str = "ancilla"):
    """Worker-side cache: (experiment-on-physical-qubits, decoder, swaps).

    Transpilation and detector-graph construction dominate small tasks;
    caching them per worker process amortises the cost across the many
    tasks sharing a configuration.
    """
    with obs.span("compile"):
        experiment = build_experiment(code, rounds, basis)
        swap_count = 0
        if arch is not None:
            graph = build_arch(arch)
            routed = transpile(experiment.circuit, graph, layout=layout)
            experiment = dataclasses.replace(experiment,
                                             circuit=routed.circuit)
            swap_count = routed.swap_count
        decoder = decoder_for(experiment, decoder_spec,
                              use_final_data=(readout == "data"))
    return experiment, decoder, swap_count


def _build_noise(task: InjectionTask, experiment: MemoryExperiment
                 ) -> NoiseModel:
    channels = []
    fault = task.fault
    if fault.kind == "radiation":
        if task.arch is not None:
            graph = build_arch(task.arch)
            distances = graph.distances_from(fault.root_qubit)
            nq = graph.num_qubits
        else:
            nq = experiment.circuit.num_qubits
            positions = (experiment.code.qubit_positions()
                         if fault.strike_round >= 0 else None)
            # Burst scenarios without an architecture spread over the
            # code's own planar embedding (device ~ lattice); legacy
            # static faults keep the qubit-line metric (mainly tests).
            distances = None if positions is not None else {
                q: abs(q - fault.root_qubit) for q in range(nq)}
        model_kwargs = dict(gamma=fault.gamma, n=fault.spatial_n,
                            num_samples=fault.num_samples,
                            spread=fault.spread)
        if distances is not None:
            event = RadiationEvent(
                root_qubit=fault.root_qubit, distances=distances,
                num_qubits=nq, **model_kwargs)
        else:
            event = RadiationEvent.from_positions(
                fault.root_qubit, positions, **model_kwargs)
        if fault.strike_round >= 0:
            channels.append(event.burst(
                fault.strike_round,
                max(1, experiment.code.measures_per_round),
                scale=fault.intensity))
        else:
            channels.append(event.channel(fault.time_index))
    elif fault.kind == "erasure":
        channels.append(ErasureChannel(fault.qubits, fault.probability))
    if task.intrinsic_p > 0:
        channels.append(DepolarizingNoise(task.intrinsic_p))
    return NoiseModel(channels)


@dataclasses.dataclass
class _StructureCell:
    """What the first compile of a (circuit, site signature) pair
    taught about every later point of the pair."""

    #: The first compile's structure.  Later points bind it — after a
    #: :meth:`~repro.frames.FrameStructure.reseed` at their own
    #: reference seed when its reference pass drew from the seed.
    structure: Optional[FrameStructure] = None
    #: Whether the lowering is exact (no twirled reset site) — a fact
    #: of the reference tableau's x-bits, so the same for every seed.
    #: ``None`` until the first compile.
    exact: Optional[bool] = None


@lru_cache(maxsize=256)
def _structure_cell(code: CodeSpec, rounds: int, basis: str,
                    arch: Optional[ArchSpec], layout: str,
                    signature: Tuple) -> _StructureCell:
    """The memo cell of one (circuit, site signature) pair.

    The key is by value — the :func:`_prepared` arguments the circuit
    is a function of, and :func:`~repro.frames.site_signature` — and
    ``lru_cache`` supplies the bound, the eviction and the locking, as
    it does for the caches around it.
    """
    return _StructureCell()


def _point_cell(task: InjectionTask, experiment: MemoryExperiment,
                noise: NoiseModel) -> _StructureCell:
    """The memo cell of the point's circuit and site signature."""
    return _structure_cell(
        task.code, task.rounds, task.basis, task.arch, task.layout,
        site_signature(noise, experiment.circuit.num_qubits))


def _bound(cell: _StructureCell, task: InjectionTask,
           experiment: MemoryExperiment, noise: NoiseModel,
           tilt: Optional[SamplerSpec], reseed: bool) -> FrameProgram:
    """The point's program from its cell: on an empty cell a compile at
    the task's reference seed that fills it, else the cell's structure
    — reseeded at that seed first when ``reseed`` and its reference
    pass drew from its seed — bound to ``noise`` with ``tilt``."""
    with obs.span("compile"):
        structure = cell.structure
        if structure is None:
            program = compile_frame_program(
                experiment.circuit, noise, rng=frame_ref_seed(task.seed),
                tilt=tilt)
            cell.structure = program.structure
            cell.exact = program.exact_noise
            return program
        if reseed and structure.seeded:
            structure = structure.reseed(frame_ref_seed(task.seed))
        return structure.bind(noise, tilt)


def _frame_program(task: InjectionTask, experiment: MemoryExperiment,
                   noise: NoiseModel, tilt: Optional[SamplerSpec] = None
                   ) -> Optional[FrameProgram]:
    """Resolve the task's backend: a compiled frame program — bound
    with ``tilt``, if given — or ``None`` for the batched-tableau path.

    ``"auto"`` takes the frame path only when the lowering is *exact*
    (the paper's fault semantics are preserved bit-for-bit in
    distribution); ``"frames"`` also accepts programs with twirled reset
    sites — the documented reset-to-mixed approximation.

    The program embeds the reference sample, seeded from the task seed
    alone (:func:`frame_ref_seed`), so every block, chunk grouping and
    resume of the task shares one reference — the chunking-invariance
    contract holds per backend.

    Points that share a circuit and fire at the same sites share the
    structure the first of them compiled: when its reference pass drew
    nothing from the seed it *is* the structure any task seed would
    compile, and the point only binds its probabilities to it.  A
    reference with a random branch is reseeded — the reference pass
    alone runs at the point's seed and its answers are patched in,
    giving the structure a compile at that seed would — and then
    bound.  An ``"auto"`` point whose cell already says "twirled"
    falls back without compiling or reseeding a program to discard.
    """
    if task.backend == "tableau":
        return None
    auto = task.backend == "auto"
    program = None
    cell = _point_cell(task, experiment, noise)
    if not (auto and cell.exact is False):
        program = _bound(cell, task, experiment, noise, tilt, reseed=True)
    if auto and (program is None or not program.exact_noise):
        _OBS_FALLBACKS.inc()
        return None
    return program


def _tableau_program(task: InjectionTask, experiment: MemoryExperiment,
                     noise: NoiseModel, tilt: Optional[SamplerSpec] = None
                     ) -> FrameProgram:
    """The program the native tableau executes for a point that runs on
    the tableau: its cell's structure bound to the point's noise (with
    ``tilt``) — never reseeded, since the tableau reads no reference
    answer — or, on an empty cell, a compile that fills it.
    """
    return _bound(_point_cell(task, experiment, noise), task, experiment,
                  noise, tilt, reseed=False)


@lru_cache(maxsize=256)
def _resolved_sampler(task: InjectionTask) -> SamplerSpec:
    """Resolve an auto-tilt task's sampler by running the pilot once.

    Cached per process and keyed by the full task spec, so the pilot
    runs at most once per task wherever resolution happens.
    ``Campaign._seeded`` resolves in the *parent* before dispatch —
    workers then receive pinned samplers and never re-run the pilot —
    while direct ``run_task`` callers resolve lazily through
    :func:`_task_context`.  The pilot is a pure function of the task
    spec (reserved seed path), so every resolution site pins the same
    tilt and task keys stay consistent across run modes and resumes.
    """
    probe = dataclasses.replace(
        task, sampler=dataclasses.replace(task.sampler, tilt=1.0))
    experiment, decoder, noise, program, _, tableau = _task_context(probe)
    # Imported lazily (the pilot executes blocks through this module's
    # own block runner).
    from ..rare.pilot import resolve_tilt

    return resolve_tilt(task, experiment, decoder, noise, program, tableau)


@lru_cache(maxsize=64)
def _task_context(task: InjectionTask):
    """Worker-side cache of everything a chunk execution needs.

    ``(experiment, base decoder, noise model, frame program, resolved
    sampler, tableau program)`` — the last the native tableau's binding
    of a point without a frame program (:func:`_tableau_program`) —
    depend only on the task spec, so they are shared by every
    chunk of the task — crucial for the parallel scheduler, whose
    workers execute a task's blocks one small lease at a time: without
    this cache each lease would re-run the reference pass, the noise
    lowering, and (for auto-tilt tasks) the pilot run.

    Sampler resolution happens here: ``tilt=0`` (auto) runs the
    deterministic pilot controller once and pins the chosen tilt, and
    a tilt binds the frame or the tableau program; ``split`` validates
    that the task actually resolved to the frame backend.
    """
    experiment, decoder, _ = _prepared(
        task.code, task.rounds, task.basis, task.arch, task.layout,
        task.decoder, task.readout)
    noise = _build_noise(task, experiment)
    sampler = task.sampler
    if sampler.auto_tilt:
        sampler = _resolved_sampler(task)
    tilt = sampler if sampler.kind == "tilt" else None
    program = _frame_program(task, experiment, noise, tilt)
    if sampler.kind == "split" and program is None:
        raise ValueError(
            "sampler 'split' resamples bit-packed frame batches and "
            "needs the frame backend; set backend='frames' (or 'auto' "
            "with an exactly-lowerable noise model)")
    tableau = None if program is not None else _tableau_program(
        task, experiment, noise, tilt)
    return experiment, decoder, noise, program, sampler, tableau


def execute_block(experiment: MemoryExperiment, decoder, noise, program,
                  sampler: SamplerSpec, sizes: Sequence[int],
                  rngs: Sequence[np.random.Generator],
                  recovery: str = "static",
                  tableau: Optional[FrameProgram] = None) -> List[Tuple]:
    """Run + decode a span of simulation blocks under a sampling
    measure: block ``i`` holds ``sizes[i]`` shots drawn from
    ``rngs[i]`` alone.

    Returns one ``(num_errors, raw_errors, corrections,
    weight_stats-or-None)`` per block, each what the block yields run
    on its own.  This is the one place a noise realisation is ever
    drawn, shared by every lease the scheduler runs (in-process or in
    a worker, via :func:`iter_task_chunks`) and the auto-tilt pilot —
    so every consumer samples the identical stream for identical
    inputs.

    Records are packed words from the sampler's exit on: the frame
    backend's word stream is wrapped in a :class:`~repro.decoders.
    batch.SyndromeBatch` as it is, the tableau's rows are packed into
    one, and decoders (the burst-adaptive wrapper included) extract
    syndromes, detectors and the raw readout by whole-word ops — no
    full-record unpack anywhere.  On the frame backend the span is one
    wide execution — the blocks are the lanes of a single
    :class:`~repro.frames.FrameSimulator` — and a static decoder
    decodes it in one call (a decode is a pure function of the shot's
    pattern).  The splitting sampler resamples its batch and the
    tableau has no lanes: those run block by block.  Without a frame
    ``program`` a block runs on the native tableau, from ``tableau``
    (:func:`_tableau_program`) when given.

    ``recovery`` other than ``"static"`` decodes each block through a
    fresh :class:`~repro.detect.recovery.BurstAdaptiveDecoder`: it
    caches burst estimates first-come, so a shared one would make a
    block's counts depend on which blocks it decoded before — on the
    span, the chunk grouping and the worker count.
    """
    sizes = [int(size) for size in sizes]
    num_qubits = experiment.circuit.num_qubits
    tilt = sampler if sampler.kind == "tilt" else None
    #: (batch, per-shot weights or None, sizes of the blocks in it)
    batches = []
    with obs.span("sample"):
        if program is not None and sampler.kind != "split":
            sim = FrameSimulator(num_qubits, sizes, rng=list(rngs))
            record_words = sim.run_packed(program)
            batches.append((
                SyndromeBatch.from_record_words(record_words,
                                                sim.batch_size),
                None if tilt is None else sim.shot_weights(), sizes))
        else:
            for size, rng in zip(sizes, rngs):
                weights = None
                if program is not None:
                    from ..rare.split import run_split_packed

                    record_words, weights = run_split_packed(
                        FrameSimulator(num_qubits, size, rng=rng),
                        program, experiment, sampler)
                    batch = SyndromeBatch.from_record_words(record_words,
                                                            size)
                else:
                    records = run_batch_noisy(
                        experiment.circuit, noise, size, rng=rng,
                        backend="tableau", tilt=tilt, program=tableau)
                    if tilt is not None:
                        records, weights = records
                    batch = SyndromeBatch.from_records(records)
                batches.append((batch, weights, [size]))
    out: List[Tuple] = []
    for batch, weights, lanes in batches:
        if recovery == "static":
            out += _decode_blocks(experiment, decoder, batch, weights,
                                  lanes, sampler.weighted)
            continue
        # Imported lazily (repro.detect sits above the decoder layer).
        from ..detect.recovery import BurstAdaptiveDecoder

        start = 0
        for size in lanes:
            out += _decode_blocks(
                experiment, BurstAdaptiveDecoder(decoder, policy=recovery),
                batch.shots(start, size),
                None if weights is None else weights[start:start + size],
                [size], sampler.weighted)
            start += size
    return out


def _decode_blocks(experiment: MemoryExperiment, decoder,
                   batch: SyndromeBatch, weights, sizes: List[int],
                   weighted: bool) -> List[Tuple]:
    """Decode ``batch`` in one call and tally it block by block
    (``sizes`` partition its shots, in order)."""
    with obs.span("decode"):
        decoded = decoder.decode_batch(experiment, batch)
    errors = decoded.errors
    wrong = batch.bit_column(experiment.readout_cbit) \
        != experiment.expected_logical
    out = []
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        out.append((
            int(np.count_nonzero(errors[block])),
            int(np.count_nonzero(wrong[block])),
            int(np.count_nonzero(decoded.corrections[block])),
            WeightStats.from_weights(weights[block], errors[block])
            if weighted else None))
        start += size
    return out


def _normalize_chunk(chunk_shots: Optional[int]) -> int:
    """Round a requested chunk size up to a whole number of blocks."""
    if chunk_shots is None:
        return DEFAULT_CHUNK_SHOTS
    chunk_shots = int(chunk_shots)
    if chunk_shots < 1:
        raise ValueError("chunk_shots must be positive")
    blocks = -(-chunk_shots // SIM_BLOCK)
    return blocks * SIM_BLOCK


def iter_task_chunks(task: InjectionTask,
                     chunk_shots: Optional[int] = None,
                     start_shot: int = 0,
                     total_shots: Optional[int] = None
                     ) -> Iterator[ChunkResult]:
    """Stream a task's shots chunk by chunk.

    Yields one :class:`ChunkResult` per chunk covering
    ``[start_shot, total_shots)`` (``total_shots`` defaults to
    ``task.shots``).  ``start_shot`` must sit on a block boundary —
    the only positions a checkpoint can legally stop at short of the
    final, possibly partial, block.
    """
    total = task.shots if total_shots is None else int(total_shots)
    chunk = _normalize_chunk(chunk_shots)
    if start_shot % SIM_BLOCK and start_shot < total:
        raise ValueError(
            f"start_shot {start_shot} is not on a {SIM_BLOCK}-shot "
            f"block boundary")
    # Backend + sampler resolution happens once per task: the frame
    # program (the reference pass + lowered noise) and the resolved
    # sampling measure are shared by every block of every chunk, across
    # however many calls schedule them.
    experiment, decoder, noise, program, sampler, tableau = \
        _task_context(task)
    wide = WIDE_BLOCKS * SIM_BLOCK
    pos = chunk_start = start_shot
    chunk_end = min(total, pos + chunk)
    #: (block result, its share of the span's wall) of the open chunk
    held: List[Tuple[Tuple, float]] = []
    while pos < total:
        # One span: the rest of the open chunk and the whole chunks
        # after it that fit the width, or — a chunk wider than a span —
        # the next ``wide`` shots of it.
        end = min(chunk_end, pos + wide)
        if end == chunk_end:
            end = min(total, end + (pos + wide - end) // chunk * chunk)
        t0 = time.perf_counter()
        starts = range(pos, end, SIM_BLOCK)
        sizes = [min(SIM_BLOCK, end - block) for block in starts]
        blocks = execute_block(
            experiment, decoder, noise, program, sampler, sizes,
            [np.random.default_rng(block_seed(task.seed, block // SIM_BLOCK))
             for block in starts], task.recovery, tableau)
        # The span's wall, apportioned by shots: chunk times stay sums
        # of real time.
        per_shot = (time.perf_counter() - t0) / (end - pos)
        for size, block in zip(sizes, blocks):
            held.append((block, per_shot * size))
            _OBS_SHOTS.inc(size)
            _OBS_ERRORS.inc(block[0])
            _OBS_BLOCKS.inc()
            pos += size
            if pos == chunk_end:
                _OBS_CHUNKS.inc()
                yield ChunkResult(
                    start=chunk_start, shots=pos - chunk_start,
                    errors=sum(b[0] for b, _ in held),
                    raw_errors=sum(b[1] for b, _ in held),
                    corrections_applied=sum(b[2] for b, _ in held),
                    elapsed_s=sum(seconds for _, seconds in held),
                    block_weights=tuple(
                        (b[3].wsum, b[3].wsq, b[3].esum, b[3].esq)
                        for b, _ in held) if sampler.weighted else None)
                chunk_start, held = pos, []
                chunk_end = min(total, pos + chunk)


def _assemble(task: InjectionTask, shots: int, errors: int, raw: int,
              corr: int, elapsed: float, chunks: int,
              weights: Optional[Tuple[float, float, float, float]] = None
              ) -> InjectionResult:
    _, _, swap_count = _prepared(
        task.code, task.rounds, task.basis, task.arch, task.layout,
        task.decoder, task.readout)
    return InjectionResult(
        task=task, shots=shots, errors=errors, raw_errors=raw,
        corrections_applied=corr, swap_count=swap_count,
        elapsed_s=elapsed, chunks=max(chunks, 1), weights=weights)


def run_task(task: InjectionTask,
             chunk_shots: Optional[int] = None,
             adaptive: Optional[AdaptivePolicy] = None,
             prior: Tuple = ZERO_PRIOR) -> InjectionResult:
    """Execute one campaign point in this process.

    A one-task campaign on the scheduler's in-process slot: build the
    point's :class:`~repro.parallel.plan.TaskPlan` and lease it dry.

    ``prior`` — ``(shots, errors, raw_errors, corrections, elapsed_s,
    chunks[, weight_moments])`` already banked for this point (store
    resume); execution continues at the next block boundary.  With an
    ``adaptive`` policy the point runs watermark segment by watermark
    segment and stops at the first decision threshold where the
    precision target is met, capped at ``adaptive.ceiling(task.shots)``
    — the stop shot depends only on the canonical block stream, never
    on ``chunk_shots`` (which keeps its role as checkpoint granularity
    within a segment) or on how a parallel scheduler interleaved the
    work.  Without a policy exactly ``task.shots`` run.
    """
    from ..parallel import Scheduler

    scheduler = Scheduler(1, chunk_shots=chunk_shots, adaptive=adaptive)
    return scheduler.run([task], priors=[prior])[0]


def _reusable(banked: Optional[InjectionResult],
              adaptive: Optional[AdaptivePolicy]) -> bool:
    """Is a stored completed result valid for the *current* run mode?

    The task key pins the spec (including the shot budget) but not the
    stopping rule, so a point completed by an adaptive run may hold
    fewer shots than the fixed budget.  A fixed-mode resume therefore
    only reuses full-budget results (and tops up the banked chunks
    otherwise — the blocks are canonical, so continuing is exact); an
    adaptive resume reuses anything its own policy would have stopped
    at, including full-budget results.
    """
    if banked is None:
        return False
    if adaptive is None:
        return banked.shots >= banked.task.shots
    return adaptive.should_stop(banked.errors, banked.shots,
                                banked.task.shots,
                                banked.weight_stats if banked.weighted
                                else None)


class Campaign:
    """A set of injection tasks executed together.

    Parameters
    ----------
    tasks:
        The task list.
    root_seed:
        Seeds every task missing an explicit non-zero seed, derived
        per-index via ``SeedSequence`` so the campaign is reproducible
        under any parallel schedule.
    workers:
        Default worker count for :meth:`run` (the sweep-spec
        ``"workers"`` key); ``None`` leaves it to ``REPRO_WORKERS``,
        else the CPU count.
    """

    def __init__(self, tasks: Optional[Iterable[InjectionTask]] = None,
                 root_seed: int = 2024,
                 workers: Optional[int] = None) -> None:
        self.tasks: List[InjectionTask] = list(tasks or [])
        self.root_seed = int(root_seed)
        self.workers = None if workers is None else int(workers)

    def __len__(self) -> int:
        return len(self.tasks)

    def _seeded(self) -> List[InjectionTask]:
        out = []
        for i, t in enumerate(self.tasks):
            if t.seed == 0:
                t = dataclasses.replace(t, seed=task_seed(self.root_seed, i))
            if t.sampler.auto_tilt:
                # Resolve auto-tilt in the parent, once per task:
                # workers receive the pinned tilt instead of each
                # re-running the (deterministic) pilot, and every run
                # mode keys the store by the same resolved spec.
                t = dataclasses.replace(t, sampler=_resolved_sampler(t))
            out.append(t)
        return out

    def banked(self, store: Union[CampaignStore, str, None],
               adaptive: Optional[AdaptivePolicy] = None) -> int:
        """How many of *this campaign's* points a resume would skip
        (store files are shared across campaigns, so ``len(store)``
        over-counts)."""
        store = CampaignStore.coerce(store)
        if store is None:
            return 0
        return sum(1 for t in self._seeded()
                   if _reusable(store.result_for(t), adaptive))

    def run(self, chunk_shots: Optional[int] = None,
            adaptive: Optional[AdaptivePolicy] = None,
            resume: Union[CampaignStore, str, None] = None,
            workers: Optional[int] = None) -> ResultSet:
        """Run all tasks through the :mod:`repro.parallel` scheduler.

        ``workers`` — worker processes (``None`` falls back to the
        campaign's own ``workers`` default, e.g. from a sweep spec,
        then ``REPRO_WORKERS``, then the CPU count).  The scheduler
        splits *within* tasks at simulation-block granularity, so even
        a single deep point scales across cores; ``workers=1`` — or a
        plan of a single lease — runs the same loop in this process
        without forking.  Counts and adaptive stop shots are
        bit-identical for any worker count.

        ``resume`` — a :class:`CampaignStore` (or its path): completed
        points are reconstructed from the checkpoint instead of re-run,
        partially-sampled points continue from their last recorded
        chunk, and every newly finished chunk/point is appended, so a
        killed campaign picks up where it stopped with identical
        results.  ``adaptive`` applies an early-stopping policy to every
        point (``task.shots`` becomes the ceiling unless the policy
        carries its own).  Backend, decoder, sampler and recovery
        policy are fields of each task (and of its store key), set
        where the task is built.
        """
        mon = obs.active()
        try:
            return self._run(mon, chunk_shots, adaptive, resume, workers)
        finally:
            if mon is not None:
                # Campaign boundary, not session end: force a telemetry
                # snapshot/redraw but leave the ambient session open
                # (scripts/run_all_experiments.py runs one campaign per
                # figure in one session).
                mon.campaign_end()

    def _run(self, mon, chunk_shots, adaptive, resume, workers) -> ResultSet:
        from ..parallel import Scheduler, default_workers

        seeded = self._seeded()
        store = CampaignStore.coerce(resume)
        if workers is None:
            workers = default_workers(self.workers)
        results: List[Optional[InjectionResult]] = [None] * len(seeded)
        if store is not None:
            for i, t in enumerate(seeded):
                banked = store.result_for(t)
                if _reusable(banked, adaptive):
                    results[i] = banked
        # Everything else runs; the scheduler resumes each point from
        # the chunks the store holds for it.
        todo = [i for i, result in enumerate(results) if result is None]

        if mon is not None:
            mon.begin_campaign(
                seeded, [adaptive.ceiling(t.shots) if adaptive else t.shots
                         for t in seeded])
            for i, banked in enumerate(results):
                if banked is not None:
                    mon.task_done(seeded[i], banked.shots, banked.errors)

        scheduler = Scheduler(
            int(workers), chunk_shots=chunk_shots, adaptive=adaptive,
            store=store)
        for i, result in zip(todo, scheduler.run(
                [seeded[i] for i in todo])):
            results[i] = result
        return ResultSet(results)
