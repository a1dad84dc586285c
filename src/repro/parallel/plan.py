"""Deterministic chunk planning, watermark aggregation, the store write
path, and the one lease queue.

Every route hands its executor a :class:`Lease` — a run of contiguous
:class:`ChunkLease` slices, each a ``[start, start + shots)`` slice of
one task's canonical block stream.  Because every block is seeded from
the task seed by its block index alone
(:func:`repro.util.rng.block_seed`), a slice's counts are a pure
function of ``(task, start, shots)``: it does not matter which worker
runs it, when, in which run, or how many times (a re-run after a crash
is bit-identical, so duplicates are discarded on arrival).

:class:`TaskPlan` owns the other half of the determinism contract: it
aggregates completed slices into a *contiguous frontier* and evaluates
the adaptive policy only when the frontier crosses a decision
watermark, with the cumulative counts **at exactly that watermark**.
Slices are pre-split so none straddles a watermark, so those prefix
counts — and therefore the stop shot — are identical for one worker or
many, whatever order results arrive in.

It is also the store's only writer: the process that owns a point's
plan appends each chunk as the frontier advances over it and the done
record when the plan completes, so a store holds, per point, exactly
the canonical prefix its plans folded — in stream order, no
speculative past-stop chunk, no requeue duplicate.

:class:`LeaseQueue` is the one queue the campaign scheduler and the
service's dispatcher both lease from.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import (Deque, Dict, Hashable, Iterable, List, NamedTuple,
                    Optional, Tuple)

from .. import obs
from ..injection import campaign as _engine
from ..injection.adaptive import AdaptivePolicy
from ..injection.results import (SIM_BLOCK, ChunkResult, ChunkTally,
                                 InjectionResult)
from ..injection.spec import InjectionTask
from ..injection.store import CampaignStore, _identity
from ..obs import trace
from ..rare.stats import WeightStats

#: Counts tuple banked per task before the run (store resume):
#: ``(shots, errors, raw_errors, corrections, elapsed_s, chunks)``,
#: optionally extended with accumulated importance-weight moments
#: ``(wsum, wsq, esum, esq)`` as a seventh element.
Prior = Tuple

#: Policy-evaluation counters (cached once; obs.reset zeroes in place).
_OBS_DECISIONS = obs.counter("engine.decisions")
_OBS_EARLY_STOPS = obs.counter("engine.early_stops")


class ChunkLease(NamedTuple):
    """One schedulable slice of a task's block stream."""

    task_index: int
    start: int
    shots: int

    @property
    def end(self) -> int:
        return self.start + self.shots


def plan_leases(task_index: int, start: int, target: int,
                chunk_shots: int,
                adaptive: Optional[AdaptivePolicy],
                task_shots: int) -> List[ChunkLease]:
    """Split ``[start, target)`` into block-aligned, watermark-aligned
    leases of at most ``chunk_shots`` shots.

    ``chunk_shots`` must be a whole number of blocks (the engine's
    ``_normalize_chunk`` guarantees it); the final lease may be partial
    when the target is not a block multiple.
    """
    leases: List[ChunkLease] = []
    pos = start
    while pos < target:
        end = min(pos + chunk_shots, target)
        if adaptive is not None:
            end = min(end, adaptive.next_watermark(pos, task_shots))
        leases.append(ChunkLease(task_index, pos, end - pos))
        pos = end
    return leases


class TaskPlan(ChunkTally):
    """Scheduling state for one campaign point.

    The only frontier aggregator in the system: serial runs, forked
    workers, store resume and the campaign service all bank chunks
    through it.  Tracks which leases are pending (unleased), leased (in
    flight to a worker or runner, or executing in-process), and
    completed; advances the contiguous frontier as results arrive (the
    inherited :class:`ChunkTally` holds the counts along it); and
    evaluates the adaptive policy at each watermark the frontier
    reaches, truncating the plan when the point resolves early.
    ``banked`` — a store's chunks for the point, in start order — is
    replayed on top of ``prior`` before the remainder is planned.  With
    a ``store`` (and the point's ``key`` in it) ``banked`` is read from
    it, every chunk the frontier then advances over is appended to it,
    and so is the done record once the plan completes.
    """

    def __init__(self, index: int, task: InjectionTask, prior: Prior,
                 chunk_shots: int,
                 adaptive: Optional[AdaptivePolicy],
                 banked: Iterable[ChunkResult] = (),
                 store: Optional[CampaignStore] = None,
                 key: Optional[str] = None) -> None:
        super().__init__(prior, weighted=task.sampler.weighted)
        self.index = index
        self.task = task
        self.adaptive = adaptive
        self.store = store
        self.key = key
        if store is not None:
            banked = store.chunks_for(key)
        self.target = (adaptive.ceiling(task.shots) if adaptive
                       else task.shots)
        self.stopped = False
        self.pending: Deque[ChunkLease] = deque()
        #: Completed-but-not-yet-contiguous results, keyed by start.
        self._completed: Dict[int, ChunkResult] = {}
        #: Slices taken off ``pending`` and not yet recorded or given
        #: back.
        self.leased: Dict[int, ChunkLease] = {}
        # A prior sitting ON the watermark grid replays its decision; an
        # off-grid one (e.g. a fine-grained checkpoint) resumes sampling
        # to the next watermark first, so the evaluated prefixes — and
        # the stop shot — match an uninterrupted run exactly.
        self._decide()
        self._replay(banked)
        self.pending.extend(plan_leases(
            index, self.shots, self.target, chunk_shots, adaptive,
            task.shots))
        # Banked chunks that already complete the point (a run killed
        # between its last chunk and its done record).
        self._mark_if_done()

    # -- scheduling views ---------------------------------------------
    @property
    def remaining(self) -> int:
        """Expected remaining shots (the priority key): everything not
        yet completed up to the current target."""
        return max(0, self.target - self.shots)

    @property
    def done(self) -> bool:
        """The frontier has reached the target (a requeued duplicate
        may still be running somewhere; its result is discarded)."""
        return self.shots >= self.target

    # -- result aggregation -------------------------------------------
    def record(self, chunk: ChunkResult) -> bool:
        """Bank one completed lease; returns True if it was new.

        Advances the contiguous frontier and evaluates the policy at
        every watermark the frontier reaches, in order.  Results for
        already-banked or beyond-stop ranges (a re-run after a crash,
        or a speculative in-flight chunk finishing after the stop
        decision) are discarded — counts stay a function of the
        canonical prefix ``[0, stop)`` alone.

        A chunk reaches the store when the frontier folds it, not when
        it arrives: one that completed ahead of a gap waits in memory,
        and a stop decision short of it drops it unwritten.  (A kill
        loses the waiting ones; a resume could not have used them —
        :meth:`_replay` ends at the first gap.)
        """
        self.leased.pop(chunk.start, None)
        if chunk.start in self._completed or chunk.start < self.shots \
                or chunk.start >= self.target:
            return False
        self._completed[chunk.start] = chunk
        while self.shots in self._completed:
            ready = self._completed.pop(self.shots)
            if self.store is not None:
                self.store.append_chunk(self.key, ready)
            self.add(ready)
            self._decide()
        self._mark_if_done()
        return True

    def _mark_if_done(self) -> None:
        """Write the point's done record if the plan is complete.  Runs
        after construction and after each accepted chunk — the only
        moments the frontier or the target move — so the record is
        written once."""
        if self.store is not None and self.done:
            self.store.mark_done(self.key, self.result())

    def _replay(self, banked: Iterable[ChunkResult]) -> None:
        """Advance the frontier over a store's banked chunks (given in
        start order) before anything is planned.

        Policy decisions are re-evaluated at each watermark, so the
        frontier ends exactly where an uninterrupted run would have
        stopped — a store may legitimately hold chunks *past* that
        point (a fixed-budget run banks the whole budget; a looser
        policy stops later) and they must not drag the resumed stop
        shot forward.  A banked chunk that straddles an undecided
        watermark (coarser ``chunk_shots`` than the decision grid) is
        not consumed: its counts at the watermark are unrecoverable, so
        the run re-samples from the last aligned boundary instead —
        canonical blocks make the re-run bit-identical.  Neither is a
        chunk ending off the block grid short of the target, nor
        anything after a gap or overlap.
        """
        for chunk in banked:
            if chunk.start != self.shots or self.shots >= self.target:
                break
            watermark = self.target if self.adaptive is None else \
                self.adaptive.next_watermark(self.shots, self.task.shots)
            if chunk.end > watermark or (
                    chunk.end % SIM_BLOCK and chunk.end < self.target):
                break
            self.add(chunk)
            self._decide()

    def _decide(self) -> None:
        """Evaluate the policy if the frontier sits on a decision
        watermark short of the target (leases never straddle one, so
        the counts are exactly the watermark's prefix counts)."""
        if self.adaptive is None or not 0 < self.shots < self.target \
                or self.shots % self.adaptive.decision_step:
            return
        _OBS_DECISIONS.inc()
        if self.adaptive.should_stop(self.errors, self.shots,
                                     self.task.shots,
                                     self.weight_stats()):
            _OBS_EARLY_STOPS.inc()
            self._stop_at_frontier()

    def weight_stats(self) -> Optional[WeightStats]:
        """Frontier weight moments for policy decisions (None for MC)."""
        if not self.weighted:
            return None
        wsum, wsq, esum, esq = self.weights
        return WeightStats(shots=self.shots, wsum=wsum, wsq=wsq,
                           esum=esum, esq=esq,
                           iid=self.task.sampler.kind != "split")

    def _stop_at_frontier(self) -> None:
        """Adaptive stop: truncate the plan at the current frontier."""
        self.stopped = True
        self.target = self.shots
        self.pending.clear()
        self._completed.clear()
        # In-flight leases stay in ``leased`` until their (discarded)
        # results or their worker's death accounts for them.

    def result(self) -> InjectionResult:
        """The point's final, order-independent aggregate (swap counts
        come from the cached transpilation the workers use)."""
        from ..injection.campaign import _assemble

        return _assemble(self.task, *self.prior())


@dataclass(eq=False)
class Lease:
    """A run of ``run`` contiguous ``shots``-shot slices from ``start``
    of one plan, held by reference (the service builds every plan with
    index 0).  The service head sets the holder fields below."""

    lease_id: str
    plan: TaskPlan
    start: int
    shots: int
    run: int
    runner: str = ""
    deadline: float = math.inf    # monotonic; past it, presumed lost
    trace: Optional[trace.TraceContext] = None    # shipped on the wire
    t_leased: float = 0.0         # monotonic

    @property
    def task(self) -> InjectionTask:
        return self.plan.task

    @property
    def key(self) -> Optional[str]:
        return self.plan.key

    def to_wire(self) -> Dict[str, object]:
        """What an executor outside the plans' process is sent: the
        task's memoised canonical dict (shared with its key and done
        record — readers must not mutate it), the run's coordinates and
        the span context."""
        key, task = _identity(self.plan.task)
        wire: Dict[str, object] = {
            "lease": self.lease_id, "key": key, "task": task,
            "start": self.start, "shots": self.shots, "run": self.run}
        if self.trace is not None:
            wire["trace"] = self.trace.to_wire()
        return wire


class LeaseQueue:
    """The plans' pending slices.  A lessee keeps leasing the plan it
    leased last while that plan has pending slices, so its per-point
    caches stay warm; otherwise it takes the deepest plan (by the
    remaining shots it was queued with: the low-LER tail never
    straggles behind quick points), which then goes behind the plans
    as deep as it, so the next lessee starts another.  A lease is the
    next run of the plan: contiguous, equally sized slices, at most
    ``WIDE_BLOCKS`` blocks and ⌈pending / ``lessees``⌉ slices, and no
    further past an adaptive plan's frontier than the frontier has
    come."""

    def __init__(self, plans: Iterable[TaskPlan] = ()) -> None:
        self._heap: List[Tuple[int, int, TaskPlan]] = []
        self._seq = itertools.count()
        #: The plan each lessee leased last.
        self._last: Dict[Hashable, TaskPlan] = {}
        for plan in plans:
            self.add(plan)

    def add(self, plan: TaskPlan) -> None:
        """Queue ``plan`` behind every plan at least as deep (one that
        is queued already may be queued twice: harmless)."""
        if plan.pending and not plan.done:
            heapq.heappush(self._heap,
                           (-plan.remaining, next(self._seq), plan))

    def lease(self, lessees: int, lessee: Hashable) -> Optional[Lease]:
        """``lessee``'s next run (``None``: nothing pending)."""
        plan = self._last.get(lessee)
        while plan is None or not plan.pending or plan.done:
            if not self._heap:
                return None
            plan = self._last[lessee] = heapq.heappop(self._heap)[2]
            self.add(plan)
        pending = plan.pending
        share = -(-len(pending) // lessees)
        first = pending[0]
        # (The width is read where the engine reads it.)
        end = first.start + _engine.WIDE_BLOCKS * SIM_BLOCK
        if plan.adaptive is not None:
            end = min(end, 2 * plan.shots)
        run = 1
        while run < share and pending[run].end <= end \
                and pending[run] == ChunkLease(
                    first.task_index, pending[run - 1].end, first.shots):
            run += 1
        for _ in range(run):
            piece = pending.popleft()
            plan.leased[piece.start] = piece
        # The key in the id: an earlier head's lease id names its point.
        return Lease(f"L{next(self._seq)}-{(plan.key or '')[:8]}", plan,
                     first.start, first.shots, run)

    def give_back(self, leases: Iterable[Lease]) -> int:
        """The one requeue path, for failed and expired leases: every
        slice goes back into its plan's pending slices in start order,
        so the front comes out first again; returns how many."""
        pieces = [(lease.plan, lease.start + i * lease.shots, lease.shots)
                  for lease in leases for i in range(lease.run)]
        for plan, start, shots in pieces:
            if plan.leased.pop(start, None) is not None \
                    and start < plan.target:
                bisect.insort(plan.pending,
                              ChunkLease(plan.index, start, shots))
        for plan in {id(plan): plan for plan, _, _ in pieces}.values():
            self.add(plan)
        return len(pieces)
