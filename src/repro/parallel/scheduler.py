"""Multiprocess campaign scheduler.

The paper's conclusions rest on millions of injections; the frame
backend made sampling cheap enough that a single interpreter became
the bottleneck.  This scheduler makes campaign wall-clock scale with
the hardware while keeping the engine's reproducibility contract
intact:

* **One queue, deepest first** — the plans' own pending leases are the
  only queue.  A priority heap orders the plans by expected remaining
  shots, so the low-LER tail points that adaptive stopping cannot
  shorten start early and never straggle behind a line of quick
  mid-rate points.  A worker with pipeline room is sent the next run
  of the deepest plan (:meth:`Scheduler._take_run`): contiguous,
  equally sized leases, at most ``WIDE_BLOCKS`` blocks and at most a
  fair share of that plan's pending leases, so a small deep point
  still spreads over the fleet.  Only a small pipeline is ever
  buffered in a worker; everything else stays on the parent side for
  whichever worker has room next.
* **One loop, in-process or forked** — the scheduler is the engine's
  only executor.  With one effective worker (``workers=1``, or a plan
  of a single lease) it drains the plans itself, in task order, at the
  engine's checkpoint grain; otherwise it forks workers, each on its own
  duplex pipe.  Either way the engine is handed runs taken by
  the same :meth:`Scheduler._take_run`, which it executes as wide
  spans.  The choice is computed from the inputs, never set by the
  caller, and both routes bank every chunk through the same
  :class:`~repro.parallel.plan.TaskPlan`.  A forked worker is a
  :class:`~repro.parallel.worker.Worker` — the same process the
  service head's ``-j N`` slots run — and each run is sent to it as a
  wire lease, the dict pull runners are sent.
* **Crash tolerance** — a dead worker's in-flight runs are requeued
  and the campaign completes with a :class:`RuntimeWarning`; if every
  worker dies (or none can be started), the remaining leases finish
  through that same in-process drain.  A worker's death reads as EOF
  (or a cut-off message) on its own pipe, so it costs that worker and
  never the campaign.
  Requeued chunks may execute twice; canonical block seeding makes the
  re-run bit-identical, and the plan discards the duplicate on arrival.
* **Deterministic aggregation, one writer** — workers only compute:
  every chunk comes back over its worker's pipe and is banked by this
  process through the point's :class:`~repro.parallel.plan.TaskPlan`,
  which is also what writes it to the store.  Adaptive stop decisions
  are made only at shots-completed watermarks over the contiguous
  frontier, never on worker arrival order, so final counts and stop
  shots are bit-identical for ``workers=1|2|4`` — and a hard kill of
  this process loses only chunks that had not yet joined a frontier.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import signal
import threading
import warnings
from collections import defaultdict, deque
from multiprocessing.connection import wait
from typing import Deque, Dict, List, Optional, Tuple

from .. import obs
from ..injection import campaign as _engine
from ..injection.adaptive import AdaptivePolicy
from ..injection.campaign import DEFAULT_CHUNK_SHOTS, _normalize_chunk
from ..injection.results import (SIM_BLOCK, ZERO_PRIOR, ChunkResult,
                                 InjectionResult)
from ..injection.spec import InjectionTask
from ..injection.store import CampaignStore, _identity, task_key
from . import worker
from .plan import ChunkLease, Prior, TaskPlan

#: Runs buffered inside a worker process (sent, not yet reported) at
#: any time.  Enough to hide the pipe round-trip behind compute; small
#: enough that nearly all planned work stays on the parent side, free
#: for whichever worker has room next.
PIPELINE_DEPTH = 2

#: Scheduler metric handles (parent-process registry; cached once —
#: obs.reset zeroes them in place).
_OBS_LEASES = obs.counter("scheduler.leases")
_OBS_CRASHES = obs.counter("scheduler.worker_crashes")
_OBS_REQUEUED = obs.counter("scheduler.requeued_leases")


def default_workers(spec_workers: Optional[int] = None) -> int:
    """The worker count when the caller names none: the sweep spec's
    ``"workers"`` key, else ``REPRO_WORKERS``, else the CPU count."""
    if spec_workers is not None:
        return max(1, int(spec_workers))
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring REPRO_WORKERS={env!r} (not an integer); "
                f"using the CPU count", RuntimeWarning, stacklevel=2)
    return max(1, os.cpu_count() or 1)


def _mp_context():
    """Prefer fork (fast spawn, inherited imports); fall back cleanly."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class Scheduler:
    """Execute a list of campaign points, in-process or across worker
    processes."""

    def __init__(self, workers: int,
                 chunk_shots: Optional[int] = None,
                 adaptive: Optional[AdaptivePolicy] = None,
                 store: Optional[CampaignStore] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.requested_workers = int(workers)
        # Default grain: a fleet leases one canonical SIM_BLOCK at a
        # time — the finest grain the reproducibility contract allows,
        # so a point's leases spread over every worker; a lone worker
        # has nobody to share with and takes the engine's checkpoint
        # chunk.
        if chunk_shots is not None:
            self.chunk_shots = _normalize_chunk(chunk_shots)
        else:
            self.chunk_shots = (DEFAULT_CHUNK_SHOTS if workers == 1
                                else SIM_BLOCK)
        self.adaptive = adaptive
        self.store = store

    # -- public entry --------------------------------------------------
    def run(self, tasks: List[InjectionTask],
            priors: Optional[List[Prior]] = None) -> List[InjectionResult]:
        """Run ``tasks`` to completion.  With a store, each point
        resumes from the chunks banked under its key (replayed on top
        of its prior) and every new chunk is checkpointed there."""
        if priors is None:
            priors = [ZERO_PRIOR] * len(tasks)
        store = self.store
        plans = [TaskPlan(i, task, prior, self.chunk_shots, self.adaptive,
                          store=store,
                          key=None if store is None else task_key(task))
                 for i, (task, prior) in enumerate(zip(tasks, priors))]
        self._plans = plans
        for plan in plans:
            if plan.done:
                self._report_done(plan)
        total_leases = sum(len(p.pending) for p in plans)
        if min(self.requested_workers, total_leases) > 1:
            self._execute(plans, total_leases)
        else:
            # One effective worker: a process fleet would only add
            # fork and pipe cost (and hide the work from the parent's
            # profiler).
            self._drain(plans)
        return [plan.result() for plan in plans]

    @staticmethod
    def _report_done(plan: TaskPlan) -> None:
        mon = obs.active()
        if mon is not None:
            mon.task_done(plan.task, plan.shots, plan.errors,
                          target=plan.target)
            mon.tick()

    # -- the scheduling loop -------------------------------------------
    def _execute(self, plans: List[TaskPlan], total_leases: int) -> None:
        ctx = _mp_context()
        num_workers = min(self.requested_workers, total_leases)
        #: Live workers by id.
        self._workers: Dict[int, worker.Worker] = {}
        #: Runs sent to each worker and not yet reported, oldest first.
        self._inflight: Dict[int, Deque[List[ChunkLease]]] = \
            defaultdict(deque)
        self._heap: List[Tuple[int, int, int]] = []
        self._heap_seq = 0
        for plan in plans:
            self._push_plan(plan)
        # Graceful shutdown: a SIGTERM (service stop, batch-system
        # preemption) becomes a KeyboardInterrupt so it unwinds through
        # the same finally as Ctrl+C — leases requeued, workers told to
        # exit and joined — instead of killing the parent outright.
        # Only installable from the main thread; elsewhere SIGTERM
        # keeps its default meaning.
        previous_term = None
        if threading.current_thread() is threading.main_thread():

            def _term_to_interrupt(signum, frame):
                raise KeyboardInterrupt

            previous_term = signal.signal(signal.SIGTERM,
                                          _term_to_interrupt)
        try:
            for wid in range(num_workers):
                try:
                    self._workers[wid] = worker.Worker(wid, ctx)
                except OSError as exc:
                    warnings.warn(
                        f"could not start parallel worker {wid} ({exc}); "
                        f"continuing with {len(self._workers)} worker(s)",
                        RuntimeWarning, stacklevel=2)
                    break
            # One run per worker per pass, so every worker has a run
            # before any has two.
            for _ in range(PIPELINE_DEPTH):
                self._pump()
            while not all(plan.done for plan in plans):
                if not self._workers:
                    # None is left (or none could be started): finish
                    # in this process so the campaign still completes.
                    warnings.warn(
                        "no parallel workers remain alive; finishing the "
                        "campaign in-process", RuntimeWarning, stacklevel=2)
                    obs.event("scheduler.inline_fallback",
                              "all workers dead; finishing in-process")
                    self._drain(plans)
                    return
                handles = {}
                for wid, handle in self._workers.items():
                    handles[handle.conn] = \
                        handles[handle.process.sentinel] = wid
                for wid in sorted({handles[ready]
                                   for ready in wait(list(handles))}):
                    reply = self._workers[wid].recv()
                    if reply is None:
                        self._reap(wid)
                        continue
                    plan = plans[reply["lease"]]
                    if "error" in reply:
                        raise RuntimeError(
                            f"parallel campaign point "
                            f"{plan.task.label!r} failed in a worker:\n"
                            f"{reply['error']}")
                    self._inflight[wid].popleft()
                    mon = obs.active()
                    if mon is not None:
                        mon.worker_snapshot(wid, reply["obs"])
                    for row in reply["chunks"]:
                        self._bank(plan, ChunkResult.from_row(row))
                    self._pump()
        except KeyboardInterrupt:
            # Requeue every run still in flight (parent bookkeeping so
            # the plans' pending state is honest) and count what the
            # interrupt abandoned.  Every chunk banked so far is
            # already in the store; the finally stops the workers.
            requeued = sum(self._requeue(wid) for wid in self._workers)
            done = sum(plan.done for plan in plans)
            warnings.warn(
                f"campaign interrupted: {done}/{len(plans)} point(s) "
                f"complete, {requeued} leased chunk(s) requeued; banked "
                f"chunks are checkpointed — rerun with the same store "
                f"to resume", RuntimeWarning, stacklevel=2)
            _OBS_REQUEUED.inc(requeued)
            obs.event("scheduler.interrupted",
                      f"interrupt: {done}/{len(plans)} point(s) done, "
                      f"{requeued} lease(s) requeued",
                      points_done=done, points_total=len(plans),
                      requeued=requeued)
            raise
        finally:
            self._shutdown()
            if previous_term is not None:
                signal.signal(signal.SIGTERM, previous_term)

    def _push_plan(self, plan: TaskPlan) -> None:
        """(Re-)enter a task into the priority queue, deepest-first."""
        if plan.pending:
            heapq.heappush(self._heap,
                           (-plan.remaining, self._heap_seq, plan.index))
            self._heap_seq += 1

    def _bank(self, plan: TaskPlan, chunk: ChunkResult) -> None:
        """Fold one finished chunk into its plan — which checkpoints it
        — and report progress: the one arrival path, whichever process
        ran the chunk."""
        with obs.span("aggregate"):
            accepted = plan.record(chunk)
        mon = obs.active()
        if mon is not None:
            stats = plan.weight_stats()
            if stats is not None:
                obs.gauge("rare.ess").set(stats.ess)
                obs.gauge("rare.wsum").set(stats.wsum)
                obs.gauge("rare.wsq").set(stats.wsq)
            mon.task_progress(plan.task, plan.shots, plan.errors,
                              plan.target, stats)
            mon.tick()
        if accepted and plan.done:
            self._report_done(plan)

    def _pump(self) -> None:
        """Send each live worker whose pipeline has room one run of the
        deepest plan — every worker, not just one that reported: a
        worker that went idle while all work was in flight elsewhere
        picks new leases back up here."""
        for wid, handle in sorted(self._workers.items()):
            inflight = self._inflight[wid]
            if len(inflight) >= PIPELINE_DEPTH:
                continue
            while self._heap:
                plan = self._plans[heapq.heappop(self._heap)[2]]
                if plan.pending:
                    break
            else:
                return    # nothing pending: the rest is in flight
            run = self._take_run(plan, len(self._workers))
            self._push_plan(plan)
            inflight.append(run)
            _OBS_LEASES.inc(len(run))
            # The wire lease a pull runner gets, with the plan index as
            # its id.  A dead worker's send is dropped: its sentinel
            # fires and _reap requeues the run.
            key, task = _identity(plan.task)
            handle.send({"lease": plan.index, "key": key, "task": task,
                         "start": run[0].start, "shots": run[0].shots,
                         "run": len(run)})

    @staticmethod
    def _take_run(plan: TaskPlan, workers: int) -> List[ChunkLease]:
        """Lease the next run off ``plan.pending``: contiguous, equally
        sized leases, at most ``WIDE_BLOCKS`` blocks, which the engine
        executes as wide spans, and at most ⌈pending / ``workers``⌉
        leases, so the rest of the point is left for the other
        workers.  An adaptive plan's run reaches no further past the
        frontier than the frontier has come, so a point that resolves
        at its first watermark pays no speculation; what lies past a
        later stop is dropped by ``TaskPlan.record``."""
        pending = plan.pending
        if not pending:
            return []
        share = -(-len(pending) // workers)
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
        return plan.take(run)

    def _requeue(self, wid: int) -> int:
        """Give every lease in ``wid``'s in-flight runs back to its
        plan; returns how many."""
        leases = [lease for run in self._inflight[wid] for lease in run]
        self._inflight[wid].clear()
        # Descending-start order: give_back appendlefts, so the
        # requeued chunks come out front-first again and survivors
        # keep extending the contiguous frontier.
        for lease in sorted(leases, key=lambda lease: lease.start,
                            reverse=True):
            self._plans[lease.task_index].give_back(lease)
        for task_index in {lease.task_index for lease in leases}:
            self._push_plan(self._plans[task_index])
        return len(leases)

    def _reap(self, wid: int) -> None:
        """Requeue the leases of a worker that died."""
        handle = self._workers.pop(wid)
        handle.kill()    # a worker whose pipe broke can never report again
        exitcode = handle.process.exitcode
        requeued = self._requeue(wid)
        warnings.warn(
            f"parallel worker {wid} died (exit code {exitcode}); "
            f"requeued {requeued} leased chunk(s) — the campaign "
            f"continues on {len(self._workers)} worker(s)",
            RuntimeWarning, stacklevel=2)
        _OBS_CRASHES.inc()
        _OBS_REQUEUED.inc(requeued)
        obs.event("scheduler.worker_crash",
                  f"worker {wid} died (exit code {exitcode})",
                  worker=wid, exitcode=exitcode, requeued=requeued)
        self._pump()

    def _drain(self, plans: List[TaskPlan]) -> None:
        """Run every remaining lease in this process, in task order (a
        kill mid-point loses at most the run being executed — up to
        ``WIDE_BLOCKS`` blocks, 4096 shots)."""
        for plan in plans:
            while plan.shots < plan.target \
                    and (run := self._take_run(plan, 1)):
                # Through the module, so a wrapper installed on
                # ``worker.execute_lease`` (the e2e tracer) sees it.
                for chunk in worker.execute_lease(
                        plan.task, run[0].start, run[0].shots, len(run)):
                    self._bank(plan, chunk)

    def _shutdown(self) -> None:
        worker.stop(self._workers.values())
