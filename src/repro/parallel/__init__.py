"""Campaign execution (``repro.parallel``): one scheduler, any scale.

Every campaign runs through :class:`WorkStealingScheduler`, and every
chunk is banked through :class:`TaskPlan`.  With one effective worker
(``workers=1``, or a plan of a single lease) the scheduler drains the
plans in its own process; otherwise it spreads the canonical
simulation blocks across worker processes by priority and work
stealing, with crash tolerance.  Workers only compute: the process
that owns the plans is the store's single writer.  Counts and
adaptive stop shots are bit-identical either way.  Reached
through ``Campaign.run(workers=N)``, the sweep-spec ``"workers"`` key
and ``-j/--workers N`` on every campaign-running command; with none of
them, :func:`default_workers` (``REPRO_WORKERS``, else the CPU count)
decides.
"""

from .plan import ChunkLease, TaskPlan, plan_leases
from .scheduler import (WorkStealingScheduler, default_workers,
                        lease_run_size)
from .worker import execute_lease

__all__ = [
    "ChunkLease",
    "TaskPlan",
    "WorkStealingScheduler",
    "default_workers",
    "execute_lease",
    "lease_run_size",
    "plan_leases",
]
