"""Worker-process side of the multiprocess campaign scheduler.

Each worker owns one end of a duplex pipe; the scheduler holds the
other.  A worker only ever sees runs of
:class:`~repro.parallel.plan.ChunkLease` slices — contiguous, equally
sized leases of one task: it executes a run through the exact same
:func:`execute_lease` call the scheduler's in-process drain uses (so
counts are bit-identical by construction) and reports the run's chunks
upstream in one message.  That is all a worker does — it holds no
store handle and writes no file; the scheduler process, which owns the
plans, banks and checkpoints every chunk.  A worker whose scheduler
has died exits on its own.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import struct
import traceback
from typing import List

from .. import obs
from ..injection.campaign import iter_task_chunks
from ..injection.results import ChunkResult
from ..injection.spec import InjectionTask

#: Test-only crash injection: a worker whose id matches
#: ``REPRO_TEST_CRASH_WORKER`` SIGKILLs itself after completing
#: ``REPRO_TEST_CRASH_AFTER`` runs, half way through writing the last
#: one's reply — the crash-tolerance tests use it to die mid-campaign,
#: mid-message, exactly like an OOM-killed or segfaulted worker.
CRASH_WORKER_ENV = "REPRO_TEST_CRASH_WORKER"
CRASH_AFTER_ENV = "REPRO_TEST_CRASH_AFTER"

#: How long an idle worker waits on its pipe between checks that its
#: scheduler is still alive.  Workers forked after this one inherit
#: the scheduler's end of its pipe, so a dead scheduler need not show
#: up as EOF.
PARENT_POLL_S = 1.0


def execute_lease(task: InjectionTask, start: int, shots: int,
                  run: int = 1) -> List[ChunkResult]:
    """Execute ``run`` contiguous leases of ``shots`` shots each from
    ``start`` and return their chunks in order, one per lease — the
    one call every route executes blocks through: forked workers, the
    scheduler's in-process drain, and the service's runners.  The
    engine runs the leases as wide spans."""
    chunks = list(iter_task_chunks(
        task, chunk_shots=shots, start_shot=start,
        total_shots=start + shots * run))
    assert [chunk.shots for chunk in chunks] == [shots] * run, \
        "each lease must map to exactly one chunk"
    return chunks


def _maybe_crash(worker_id: int, completed: int, conn, reply) -> None:
    doomed = os.environ.get(CRASH_WORKER_ENV, "")
    if str(worker_id) not in doomed.split(","):
        return
    if completed >= int(os.environ.get(CRASH_AFTER_ENV, "1")):
        # Die mid-message: the frame's length header and half its
        # bytes reach the pipe, the rest never does.
        data = pickle.dumps(reply)
        os.write(conn.fileno(), struct.pack("!i", len(data))
                 + data[:len(data) // 2])
        os.kill(os.getpid(), signal.SIGKILL)


def worker_main(worker_id: int, tasks: List[InjectionTask], conn) -> None:
    """Process entry point: execute runs of leases until told to exit.

    Messages in: ``("run", task_index, start, shots, n)`` — ``n``
    leases of ``shots`` shots from ``start`` — / ``("exit",)``.
    Messages out, one per run: ``("chunks", task_index, rows,
    metrics_snapshot)`` / ``("error", task_index, traceback)``.
    Failures are reported, not raised — a task that cannot execute
    must surface in the scheduler as a campaign error, not as a silent
    worker death that looks requeue-able.

    The metrics snapshot riding every reply is the worker's
    *cumulative* registry state (zeroed at worker start, so fork
    inheritance never leaks parent counts): the scheduler merges per
    worker by replacement, making the transport idempotent — a lost or
    reordered message can never double-count.

    The scheduler's death (a SIGKILL skips its shutdown) is noticed by
    the parent pid changing, checked before every run, or by its end of
    the pipe closing: the worker drops what is left in its pipeline and
    returns.
    """
    obs.reset()
    # The pid recorded when the scheduler created this process, not
    # getppid() now: the scheduler may already be gone.
    scheduler_pid = mp.parent_process().pid
    completed = 0
    try:
        while os.getppid() == scheduler_pid:
            if not conn.poll(PARENT_POLL_S):
                continue
            message = conn.recv()
            if message[0] == "exit":
                return
            _, task_index, start, shots, run = message
            try:
                chunks = execute_lease(tasks[task_index], start, shots, run)
            except Exception:
                conn.send(("error", task_index, traceback.format_exc()))
                continue
            reply = ("chunks", task_index,
                     [chunk.to_row() for chunk in chunks],
                     obs.registry().snapshot())
            completed += 1
            _maybe_crash(worker_id, completed, conn, reply)
            conn.send(reply)
    except (EOFError, OSError):
        return    # the scheduler's end of the pipe is gone
