"""Worker-process side of the work-stealing campaign scheduler.

Each worker owns one inbox queue (scheduler → worker), shares one
results queue (workers → scheduler), and — when the campaign is
checkpointed — one private JSONL shard of the campaign store.  A worker
only ever sees :class:`~repro.parallel.plan.ChunkLease` messages: it
executes the lease through the exact same :func:`execute_lease` call
the scheduler's in-process drain uses (so counts are bit-identical by
construction),
appends the finished chunk to its shard for crash durability, then
reports the counts upstream as the scheduler's feedback channel for
globally-aggregated adaptive stop decisions.

Shards exist so that *no completed work is lost to a dead process*:
the scheduler merges them into the main store afterwards through
:meth:`CampaignStore.merge`, whose ``(key, start)`` dedup makes
re-runs of requeued chunks (bit-identical by the canonical-block
contract) collapse back into one record.
"""

from __future__ import annotations

import os
import signal
import traceback
from typing import Dict, List, Optional

from .. import obs
from ..injection.campaign import iter_task_chunks
from ..injection.results import ChunkResult
from ..injection.spec import InjectionTask
from ..injection.store import CampaignStore, task_key

#: Test-only crash injection: a worker whose id matches
#: ``REPRO_TEST_CRASH_WORKER`` SIGKILLs itself after completing
#: ``REPRO_TEST_CRASH_AFTER`` chunks — the crash-tolerance tests use it
#: to die mid-campaign exactly like an OOM-killed or segfaulted worker.
CRASH_WORKER_ENV = "REPRO_TEST_CRASH_WORKER"
CRASH_AFTER_ENV = "REPRO_TEST_CRASH_AFTER"


def shard_path(store_path: str, worker_id: int) -> str:
    """The JSONL shard worker ``worker_id`` appends chunks to."""
    return f"{store_path}.shard-{worker_id}"


def execute_lease(task: InjectionTask, start: int, shots: int
                  ) -> ChunkResult:
    """Run one lease as a single streaming chunk — the one call every
    route executes blocks through: forked workers, the scheduler's
    in-process drain, and the service's runners."""
    chunk = next(iter_task_chunks(task, chunk_shots=shots,
                                  start_shot=start,
                                  total_shots=start + shots))
    assert chunk.shots == shots, "lease must map to exactly one chunk"
    return chunk


def _maybe_crash(worker_id: int, completed: int) -> None:
    doomed = os.environ.get(CRASH_WORKER_ENV, "")
    if str(worker_id) not in doomed.split(","):
        return
    if completed >= int(os.environ.get(CRASH_AFTER_ENV, "1")):
        os.kill(os.getpid(), signal.SIGKILL)


def worker_main(worker_id: int, tasks: List[InjectionTask],
                store_path: Optional[str], inbox, results) -> None:
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
    """
    obs.reset()
    shard: Optional[CampaignStore] = None
    if store_path is not None:
        shard = CampaignStore(shard_path(store_path, worker_id))
    keys: Dict[int, str] = {}
    completed = 0
    try:
        while True:
            message = inbox.get()
            if message[0] == "exit":
                return
            _, task_index, start, shots = message
            task = tasks[task_index]
            try:
                chunk = execute_lease(task, start, shots)
            except Exception:
                results.put(("error", worker_id, task_index, start, shots,
                             traceback.format_exc()))
                continue
            if shard is not None:
                if task_index not in keys:
                    keys[task_index] = task_key(task)
                shard.append_chunk(keys[task_index], chunk)
            results.put(("chunk", worker_id, task_index, chunk.to_row(),
                         obs.registry().snapshot()))
            completed += 1
            _maybe_crash(worker_id, completed)
    finally:
        if shard is not None:
            shard.close()
