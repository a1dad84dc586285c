"""Worker-process side of the work-stealing campaign scheduler.

Each worker owns one inbox queue (scheduler → worker) and shares one
results queue (workers → scheduler).  A worker only ever sees
:class:`~repro.parallel.plan.ChunkLease` messages: it executes the
lease through the exact same :func:`execute_lease` call the
scheduler's in-process drain uses (so counts are bit-identical by
construction) and reports the finished chunk upstream.  That is all a
worker does — it holds no store handle and writes no file; the
scheduler process, which owns the plans, banks and checkpoints every
chunk.  A worker whose scheduler has died exits on its own.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import signal
import traceback
from typing import List, Optional, Union

from .. import obs
from ..injection.campaign import iter_task_chunks
from ..injection.results import ChunkResult
from ..injection.spec import InjectionTask

#: Test-only crash injection: a worker whose id matches
#: ``REPRO_TEST_CRASH_WORKER`` SIGKILLs itself after completing
#: ``REPRO_TEST_CRASH_AFTER`` chunks — the crash-tolerance tests use it
#: to die mid-campaign exactly like an OOM-killed or segfaulted worker.
CRASH_WORKER_ENV = "REPRO_TEST_CRASH_WORKER"
CRASH_AFTER_ENV = "REPRO_TEST_CRASH_AFTER"

#: How long an idle worker waits on its inbox between checks that its
#: scheduler is still alive.  A forked worker inherits the write end
#: of its own inbox, so a dead parent never shows up as EOF.
PARENT_POLL_S = 1.0


def execute_lease(task: InjectionTask, start: int, shots: int,
                  run: Optional[int] = None
                  ) -> Union[ChunkResult, List[ChunkResult]]:
    """Run one lease as a single streaming chunk — the one call every
    route executes blocks through: forked workers, the scheduler's
    in-process drain, and the service's runners.

    With ``run``, execute that many contiguous leases of ``shots``
    shots each from ``start`` — the engine runs them as wide spans —
    and return their chunks in order, one per lease."""
    leases = 1 if run is None else run
    chunks = list(iter_task_chunks(
        task, chunk_shots=shots, start_shot=start,
        total_shots=start + shots * leases))
    assert [chunk.shots for chunk in chunks] == [shots] * leases, \
        "each lease must map to exactly one chunk"
    return chunks[0] if run is None else chunks


def _maybe_crash(worker_id: int, completed: int, results) -> None:
    doomed = os.environ.get(CRASH_WORKER_ENV, "")
    if str(worker_id) not in doomed.split(","):
        return
    if completed >= int(os.environ.get(CRASH_AFTER_ENV, "1")):
        # Die between messages.  The feeder thread may still hold the
        # shared results queue's write lock for an earlier chunk (it
        # waits for the GIL inside it, so a lease shorter than the
        # interpreter's switch interval does not outlast it); a SIGKILL
        # there strands the lock and the surviving workers never report
        # again — a limit of multiprocessing.Queue, not the requeue
        # logic this hook exists to exercise.
        results.close()
        results.join_thread()
        os.kill(os.getpid(), signal.SIGKILL)


def worker_main(worker_id: int, tasks: List[InjectionTask],
                inbox, results) -> None:
    """Process entry point: drain leases until told to exit.

    Messages in: ``("chunk", task_index, start, shots)`` /
    ``("exit",)``.  Messages out: ``("chunk", worker_id, task_index,
    row, metrics_snapshot)`` / ``("error", worker_id, task_index,
    start, shots, traceback)``.  Failures are reported, not raised — a
    task that cannot execute must surface in the scheduler as a
    campaign error, not as a silent worker death that looks
    requeue-able.

    The metrics snapshot riding every chunk message is the worker's
    *cumulative* registry state (zeroed at worker start, so fork
    inheritance never leaks parent counts): the scheduler merges per
    worker by replacement, making the transport idempotent — a lost or
    reordered message can never double-count.

    The scheduler's death (a SIGKILL skips its shutdown) is noticed by
    the parent pid changing, checked before every lease: the worker
    drops what is left in its pipeline and returns.
    """
    obs.reset()
    # The pid recorded when the scheduler created this process, not
    # getppid() now: the scheduler may already be gone.
    scheduler_pid = mp.parent_process().pid
    completed = 0
    while os.getppid() == scheduler_pid:
        try:
            message = inbox.get(timeout=PARENT_POLL_S)
        except queue.Empty:
            continue
        if message[0] == "exit":
            return
        _, task_index, start, shots = message
        try:
            chunk = execute_lease(tasks[task_index], start, shots)
        except Exception:
            results.put(("error", worker_id, task_index, start, shots,
                         traceback.format_exc()))
            continue
        results.put(("chunk", worker_id, task_index, chunk.to_row(),
                     obs.registry().snapshot()))
        completed += 1
        _maybe_crash(worker_id, completed, results)
    # Nobody will ever read the results pipe again: do not let the
    # queue's feeder thread hold up interpreter exit on it.
    results.cancel_join_thread()
