"""Deterministic chunk planning and watermark aggregation.

The scheduler never hands a worker anything but a :class:`ChunkLease` —
a ``[start, start + shots)`` slice of one task's canonical block
stream.  Because every block is seeded from the task seed by its block
index alone (:func:`repro.util.rng.block_seed`), a lease's counts are a
pure function of ``(task, start, shots)``: it does not matter which
worker runs it, when, or how many times (a re-run after a crash is
bit-identical, so duplicates merge away).

:class:`TaskPlan` owns the other half of the determinism contract: it
aggregates completed leases into a *contiguous frontier* and evaluates
the adaptive policy only when the frontier crosses a decision
watermark, with the cumulative counts **at exactly that watermark**.
Leases are pre-split so none straddles a watermark, so those prefix
counts — and therefore the stop shot — are identical for one worker or
many, whatever order results arrive in.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .. import obs
from ..injection.adaptive import AdaptivePolicy
from ..injection.results import (SIM_BLOCK, ChunkResult, ChunkTally,
                                 InjectionResult)
from ..injection.spec import InjectionTask
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
    through it.  Tracks which leases are pending (unleased), leased (on
    some worker's deque or in flight), and completed; advances the
    contiguous frontier as results arrive (the inherited
    :class:`ChunkTally` holds the counts along it); and evaluates the
    adaptive policy at each watermark the frontier reaches, truncating
    the plan when the point resolves early.  ``banked`` — a store's
    chunks for the point, in start order — is replayed on top of
    ``prior`` before the remainder is planned.
    """

    def __init__(self, index: int, task: InjectionTask, prior: Prior,
                 chunk_shots: int,
                 adaptive: Optional[AdaptivePolicy],
                 banked: Iterable[ChunkResult] = ()) -> None:
        super().__init__(prior, weighted=task.sampler.weighted)
        self.index = index
        self.task = task
        self.adaptive = adaptive
        self.target = (adaptive.ceiling(task.shots) if adaptive
                       else task.shots)
        self.stopped = False
        self.pending: Deque[ChunkLease] = deque()
        #: Completed-but-not-yet-contiguous results, keyed by start.
        self._completed: Dict[int, ChunkResult] = {}
        #: Leases currently owned by a worker (deque or in flight).
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

    # -- scheduling views ---------------------------------------------
    @property
    def remaining(self) -> int:
        """Expected remaining shots (the priority key): everything not
        yet completed up to the current target."""
        return max(0, self.target - self.shots)

    @property
    def unleased_shots(self) -> int:
        return sum(lease.shots for lease in self.pending)

    @property
    def done(self) -> bool:
        return self.shots >= self.target and not self.leased

    def take(self, max_leases: int) -> List[ChunkLease]:
        """Lease up to ``max_leases`` pending chunks (front first, so a
        worker extends the frontier rather than sampling far ahead)."""
        out = []
        while self.pending and len(out) < max_leases:
            lease = self.pending.popleft()
            self.leased[lease.start] = lease
            out.append(lease)
        return out

    def give_back(self, lease: ChunkLease) -> None:
        """Return a leased chunk to the pending pool (worker death)."""
        if self.leased.pop(lease.start, None) is None:
            return
        if lease.start < self.target:
            self.pending.appendleft(lease)

    # -- result aggregation -------------------------------------------
    def record(self, chunk: ChunkResult) -> bool:
        """Bank one completed lease; returns True if it was new.

        Advances the contiguous frontier and evaluates the policy at
        every watermark the frontier reaches, in order.  Results for
        already-banked or beyond-stop ranges (a re-run after a crash,
        or a speculative in-flight chunk finishing after the stop
        decision) are discarded — counts stay a function of the
        canonical prefix ``[0, stop)`` alone.
        """
        self.leased.pop(chunk.start, None)
        if chunk.start in self._completed or chunk.start < self.shots \
                or chunk.start >= self.target:
            return False
        self._completed[chunk.start] = chunk
        while self.shots in self._completed:
            self.add(self._completed.pop(self.shots))
            self._decide()
        return True

    def _replay(self, banked: Iterable[ChunkResult]) -> None:
        """Advance the frontier over a store's banked chunks (given in
        start order) before anything is planned.

        Policy decisions are re-evaluated at each watermark, so the
        frontier ends exactly where an uninterrupted run would have
        stopped — a store may legitimately hold chunks *past* that
        point (a parallel worker's speculative in-flight leases land in
        its shard before the stop decision; a fixed-budget run banks
        the whole budget) and they must not drag the resumed stop shot
        forward.  A banked chunk that straddles an undecided watermark
        (coarser ``chunk_shots`` than the decision grid) is not
        consumed: its counts at the watermark are unrecoverable, so the
        run re-samples from the last aligned boundary instead —
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
        for start in [s for s, lease in self.leased.items()
                      if lease.start >= self.target]:
            del self.leased[start]

    def result(self) -> InjectionResult:
        """The point's final, order-independent aggregate (swap counts
        come from the cached transpilation the workers use)."""
        from ..injection.campaign import _assemble

        return _assemble(self.task, *self.prior())
