"""Pull-based remote runner: ``repro serve --runner URL``.

A runner is one more lessee of the head's lease queue: it pulls leases
(runs of slices) over the HTTP API the local slots use in-process,
executes them through the engine's canonical block stream and pushes
the chunk rows back; the head alone banks them and writes the store.
A chunk's counts are a pure function of ``(task, start, shots)``, so a
sweep finished by runners on three hosts is bit-identical to the head
running it alone.  A runner that dies mid-run never completes its
lease; the head expires it after the TTL and requeues its slices.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Optional

from .. import obs
from .client import ServiceClient, ServiceError
from .dispatcher import execute_lease_wire


def default_runner_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def run_runner(url: str, runner_id: Optional[str] = None,
               poll_s: float = 0.5,
               idle_timeout_s: Optional[float] = None,
               max_slices: Optional[int] = None) -> int:
    """Lease-execute-complete until idle timeout / slice budget.

    ``idle_timeout_s`` bounds how long the runner polls an empty queue
    before exiting (``None`` = poll forever); ``max_slices`` caps total
    work (tests): no lease is taken once that many slices are done.
    Returns the number of slices completed.
    """
    client = ServiceClient(url)
    runner = runner_id or default_runner_id()
    client.health()
    obs.event("runner.started", f"runner {runner} pulling from {url}",
              runner=runner)
    done = 0
    idle_since: Optional[float] = None
    while max_slices is None or done < max_slices:
        try:
            leases = client.lease(runner=runner, max_leases=1)
        except ServiceError as exc:
            # A dispatch head mid-restart is indistinguishable from an
            # empty queue; back off rather than crash the runner.
            obs.event("runner.lease_error", str(exc), runner=runner)
            leases = []
        if not leases:
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif idle_timeout_s is not None \
                    and now - idle_since >= idle_timeout_s:
                break
            time.sleep(poll_s)
            continue
        idle_since = None
        for wire in leases:
            try:
                payload = execute_lease_wire(wire)
            except Exception as exc:  # noqa: BLE001 — report, keep pulling
                obs.event("runner.slice_error", repr(exc),
                          lease=wire.get("lease"), runner=runner)
                try:
                    client.fail(str(wire["lease"]), repr(exc),
                                runner=runner)
                except ServiceError:
                    pass
                continue
            # The runner is its own process, so its cumulative registry
            # snapshot rides every completion and the head merges it
            # (by replacement) into the fleet-wide `/metrics` view.
            client.complete(str(payload["lease"]), payload["chunks"],
                            runner=runner, key=payload.get("key"),
                            spans=payload.get("spans"),
                            obs_snapshot=obs.registry().snapshot())
            done += len(payload["chunks"])
    obs.event("runner.stopped", f"runner {runner}: {done} slice(s)",
              runner=runner)
    return done
