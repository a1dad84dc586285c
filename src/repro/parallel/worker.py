"""The one forked worker process, and the wire lease it executes.

Every route that runs blocks outside the process owning the plans
sends a *wire lease* (:meth:`~repro.service.dispatcher.Lease.to_wire`,
plus a ``run`` count) and gets back :func:`execute_lease_wire`'s
payload: pull runners over HTTP, the campaign scheduler and the
service head's ``-j N`` slots over the pipe of a :class:`Worker`.  A
worker only computes — the plans' owner banks and stores every chunk.
Its death reads as ``None`` on its handle, costing only its own
leases, and a worker whose parent has died exits on its own.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import struct
import traceback
from multiprocessing.connection import wait
from typing import Any, Dict, Iterable, List, Mapping, Optional

from .. import obs
from ..injection.campaign import iter_task_chunks
from ..injection.results import ChunkResult
from ..injection.spec import InjectionTask, task_from_dict
from ..obs import trace

#: Test-only crash injection: a worker whose id matches
#: ``REPRO_TEST_CRASH_WORKER`` SIGKILLs itself after completing
#: ``REPRO_TEST_CRASH_AFTER`` leases, half way through writing the last
#: one's reply — the crash-tolerance tests use it to die mid-campaign,
#: mid-message, exactly like an OOM-killed or segfaulted worker.
CRASH_WORKER_ENV = "REPRO_TEST_CRASH_WORKER"
CRASH_AFTER_ENV = "REPRO_TEST_CRASH_AFTER"

#: How long an idle worker waits on its pipe between checks that its
#: parent is still alive.  Workers forked after this one inherit the
#: parent's end of its pipe, so a dead parent need not show up as EOF.
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


def execute_lease_wire(lease: Mapping[str, Any]) -> Dict[str, object]:
    """Execute one wire lease (``run`` leases from ``start``, default
    1) through :func:`execute_lease` and return the completion payload:
    ``lease``, ``key``, chunk rows and — when the lease carries a span
    context — the lease span, with engine phase deltas as children and
    the chunk as a grandchild.  Tracing never touches the engine, so
    counts stay bit-identical.  A process of its own (a forked worker,
    a pull runner) attaches its registry snapshot itself."""
    task = task_from_dict(lease["task"])
    start, shots = int(lease["start"]), int(lease["shots"])
    run = int(lease.get("run", 1))
    ctx = trace.from_wire(lease.get("trace"))
    with trace.span(ctx, "lease", here=True, phases=True,
                    key=str(lease["key"])[:16], start=start) as lctx:
        with trace.span(lctx, "chunk", start, shots=shots * run):
            chunks = execute_lease(task, start, shots, run)
    payload: Dict[str, object] = {
        "lease": lease["lease"], "key": lease["key"],
        "chunks": [chunk.to_row() for chunk in chunks]}
    if ctx is not None:
        payload["spans"] = trace.drain()
    return payload


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


def worker_main(worker_id: int, conn) -> None:
    """Process entry point: execute wire leases until told to exit.

    In: a wire lease, or ``None`` to exit.  Out, one per lease: its
    payload plus ``obs``, the worker's cumulative registry snapshot
    (zeroed at start; the parent merges by replacement, so nothing can
    double-count) — or ``{"lease": id, "error": traceback}``: a task
    that cannot execute is an error, not a requeue-able death.

    The parent's death (a SIGKILL skips its shutdown) is noticed by the
    parent pid changing, checked before every lease, or by its end of
    the pipe closing: the worker drops its pipeline and returns.
    """
    obs.reset()
    # The pid recorded when the parent created this process, not
    # getppid() now: the parent may already be gone.
    parent_pid = mp.parent_process().pid
    completed = 0
    try:
        while os.getppid() == parent_pid:
            if not conn.poll(PARENT_POLL_S):
                continue
            lease = conn.recv()
            if lease is None:
                return
            try:
                reply = execute_lease_wire(lease)
            except Exception:
                conn.send({"lease": lease.get("lease"),
                           "error": traceback.format_exc()})
                continue
            reply["obs"] = obs.registry().snapshot()
            completed += 1
            _maybe_crash(worker_id, completed, conn, reply)
            conn.send(reply)
    except (EOFError, OSError):
        return    # the parent's end of the pipe is gone


class Worker:
    """The parent's handle on one :func:`worker_main` process."""

    def __init__(self, worker_id: int, ctx=None) -> None:
        ctx = ctx or mp.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=worker_main,
                                   args=(worker_id, child_end), daemon=True)
        try:
            self.process.start()
        finally:
            # The worker holds the only other copy of its end, so its
            # death reads as EOF here.
            child_end.close()

    def send(self, lease: Optional[Mapping[str, Any]]) -> None:
        """Queue a wire lease (``None``: exit) on the worker's pipe."""
        try:
            self.conn.send(lease)
        except OSError:
            pass    # dead: the next recv reads None

    def recv(self) -> Optional[Dict[str, object]]:
        """The worker's next reply — ``None`` once it is dead: its
        sentinel fired with nothing to read, EOF, or a cut-off frame."""
        try:
            wait([self.conn, self.process.sentinel])
            return self.conn.recv() if self.conn.poll() else None
        except (EOFError, OSError):
            return None

    def call(self, lease: Mapping[str, Any]) -> Optional[Dict[str, object]]:
        """Send one lease and wait for its reply."""
        self.send(lease)
        return self.recv()

    def kill(self) -> None:
        """End a worker that can never report again."""
        self.process.kill()
        self.process.join(timeout=5.0)
        self.conn.close()


def stop(workers: Iterable[Worker]) -> None:
    """Tell every worker to exit, then join (or terminate) each: their
    leases in flight finish side by side."""
    workers = list(workers)
    for handle in workers:
        handle.send(None)
    for handle in workers:
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=5.0)
        handle.conn.close()
