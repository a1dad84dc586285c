"""Multiprocess campaign scheduler: campaign wall-clock scales with the
hardware while the engine's reproducibility contract holds.

* **One queue, one loop** — lease from the
  :class:`~repro.parallel.plan.LeaseQueue` the service head leases
  from, execute, bank.  With one effective worker (``workers=1``, or a
  plan of a single lease) the lessee is an in-process slot, so nothing
  forks and the parent's profiler sees the work; otherwise each forked
  :class:`~repro.parallel.worker.Worker` (the process the service
  head's ``-j N`` slots run) is sent wire leases over its own pipe,
  ``PIPELINE_DEPTH`` at a time.  The choice is computed from the
  inputs, never set by the caller.
* **Crash tolerance** — a dead worker (EOF or a cut-off message on its
  pipe) fails every lease it holds, and the campaign completes with a
  :class:`RuntimeWarning`; if every worker dies, or none starts, the
  in-process slot finishes in the same loop.  A requeued slice may run
  twice: canonical block seeding makes the re-run bit-identical, and
  the plan discards the duplicate.
* **Deterministic aggregation, one writer** — workers only compute;
  this process banks every chunk through its point's
  :class:`~repro.parallel.plan.TaskPlan`, which writes the store.  Stop
  decisions are made only at watermarks over the contiguous frontier,
  so counts and stop shots are bit-identical for ``workers=1|2|4``, and
  a hard kill loses only chunks that had not joined a frontier.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import warnings
from collections import defaultdict, deque
from multiprocessing.connection import wait
from typing import Deque, Dict, List, Optional

from .. import obs
from ..injection.adaptive import AdaptivePolicy
from ..injection.campaign import DEFAULT_CHUNK_SHOTS, _normalize_chunk
from ..injection.results import (SIM_BLOCK, ZERO_PRIOR, ChunkResult,
                                 InjectionResult)
from ..injection.spec import InjectionTask
from ..injection.store import CampaignStore, task_key
from . import worker
from .plan import Lease, LeaseQueue, Prior, TaskPlan

#: Runs buffered inside a worker process (sent, not yet reported) at
#: any time.  Enough to hide the pipe round-trip behind compute; small
#: enough that nearly all planned work stays on the parent side, free
#: for whichever worker has room next.
PIPELINE_DEPTH = 2

#: The in-process slot's key among the lessees.
INLINE = -1

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
        for plan in plans:
            if plan.done:
                self._report_done(plan)
        fleet = min(self.requested_workers,
                    sum(len(p.pending) for p in plans))
        # One effective worker: a process fleet would only add fork and
        # pipe cost (and hide the work from the parent's profiler).
        self._execute(plans, fleet if fleet > 1 else 0)
        return [plan.result() for plan in plans]

    @staticmethod
    def _report_done(plan: TaskPlan) -> None:
        mon = obs.active()
        if mon is not None:
            mon.task_done(plan.task, plan.shots, plan.errors,
                          target=plan.target)
            mon.tick()

    # -- the scheduling loop -------------------------------------------
    def _execute(self, plans: List[TaskPlan], fleet: int) -> None:
        """Lease → execute → bank until the queue runs dry, on ``fleet``
        forked workers or, with none (left), the in-process slot."""
        self._queue = LeaseQueue(plans)
        #: Live workers by id.
        self._workers: Dict[int, worker.Worker] = {}
        #: Leases each lessee holds, oldest first.
        self._inflight: Dict[int, Deque[Lease]] = defaultdict(deque)
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
            for wid in range(fleet):
                try:
                    self._workers[wid] = worker.Worker(wid, _mp_context())
                except OSError as exc:
                    warnings.warn(
                        f"could not start parallel worker {wid} ({exc}); "
                        f"continuing with {len(self._workers)} worker(s)",
                        RuntimeWarning, stacklevel=2)
                    break
            # One lease per worker per pass, so every worker has a run
            # before any has two.
            for _ in range(PIPELINE_DEPTH):
                self._pump()
            while True:
                if self._workers:
                    if not any(self._inflight.values()):
                        return    # nothing pending, nothing in flight
                    self._collect()
                    continue
                if fleet:
                    # None is left (or none could be started): finish
                    # in this process so the campaign still completes.
                    fleet = 0
                    warnings.warn(
                        "no parallel workers remain alive; finishing the "
                        "campaign in-process", RuntimeWarning, stacklevel=2)
                    obs.event("scheduler.inline_fallback")
                lease = self._queue.lease(1, INLINE)
                if lease is None:
                    return
                self._inflight[INLINE].append(lease)
                # Through the module, so a wrapper installed on
                # ``worker.execute_lease`` (the e2e tracer) sees it.
                chunks = worker.execute_lease(lease.task, lease.start,
                                              lease.shots, lease.run)
                self._inflight[INLINE].popleft()
                for chunk in chunks:
                    self._bank(lease.plan, chunk)
        except KeyboardInterrupt:
            # Fail every lease still held (parent bookkeeping so the
            # plans' pending state is honest) and count what the
            # interrupt abandoned.  Every chunk banked so far is
            # already in the store; the finally stops the workers.
            requeued = self._queue.give_back(
                lease for held in self._inflight.values() for lease in held)
            done = sum(plan.done for plan in plans)
            warnings.warn(
                f"campaign interrupted: {done}/{len(plans)} point(s) "
                f"complete, {requeued} leased chunk(s) requeued; banked "
                f"chunks are checkpointed — rerun with the same store "
                f"to resume", RuntimeWarning, stacklevel=2)
            _OBS_REQUEUED.inc(requeued)
            obs.event("scheduler.interrupted")
            raise
        finally:
            worker.stop(self._workers.values())
            if previous_term is not None:
                signal.signal(signal.SIGTERM, previous_term)

    def _collect(self) -> None:
        """Wait for the workers; bank each reply, reap each death."""
        handles = {}
        for wid, handle in self._workers.items():
            handles[handle.conn] = handles[handle.process.sentinel] = wid
        for wid in sorted({handles[ready] for ready in wait(list(handles))}):
            reply = self._workers[wid].recv()
            if reply is None:
                self._reap(wid)
                continue
            lease = self._inflight[wid].popleft()
            if "error" in reply:
                raise RuntimeError(
                    f"parallel campaign point {lease.task.label!r} "
                    f"failed in a worker:\n{reply['error']}")
            mon = obs.active()
            if mon is not None:
                mon.worker_snapshot(wid, reply["obs"])
            for row in reply["chunks"]:
                self._bank(lease.plan, ChunkResult.from_row(row))
            self._pump()

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
        """Send each live worker whose pipeline has room one run —
        every worker, not just one that reported: a worker that went
        idle while all work was in flight elsewhere picks new leases
        back up here.  A dead worker's send is dropped: its sentinel
        fires and :meth:`_reap` fails its leases."""
        for wid, handle in sorted(self._workers.items()):
            if len(self._inflight[wid]) >= PIPELINE_DEPTH:
                continue
            lease = self._queue.lease(len(self._workers), wid)
            if lease is None:
                return    # nothing pending: the rest is in flight
            self._inflight[wid].append(lease)
            _OBS_LEASES.inc(lease.run)
            handle.send(lease.to_wire())

    def _reap(self, wid: int) -> None:
        """Fail every lease of a worker that died."""
        handle = self._workers.pop(wid)
        handle.kill()    # a worker whose pipe broke can never report again
        exitcode = handle.process.exitcode
        requeued = self._queue.give_back(self._inflight.pop(wid, ()))
        warnings.warn(
            f"parallel worker {wid} died (exit code {exitcode}); "
            f"requeued {requeued} leased chunk(s) — the campaign "
            f"continues on {len(self._workers)} worker(s)",
            RuntimeWarning, stacklevel=2)
        _OBS_CRASHES.inc()
        _OBS_REQUEUED.inc(requeued)
        obs.event("scheduler.worker_crash")
        self._pump()
