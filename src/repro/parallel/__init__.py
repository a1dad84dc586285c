"""Campaign execution (``repro.parallel``): one scheduler, any scale.

Every campaign runs through :class:`Scheduler`, and every chunk is
banked through :class:`TaskPlan`.  The scheduler and the service head
lease from one :class:`~repro.parallel.plan.LeaseQueue`: runs of
canonical simulation blocks, each lessee on its point until it runs
dry, then on the deepest.  With one effective
worker (``workers=1``, or a plan of a single lease) the scheduler
executes them in its own process; otherwise in worker processes, with
crash tolerance.  Workers only compute: the
process that owns the plans is the store's single writer.  Counts and
adaptive stop shots are bit-identical either way.  Reached through
``Campaign.run(workers=N)``, the sweep-spec ``"workers"`` key and
``-j/--workers N`` on every campaign-running command; with none of
them, :func:`default_workers` (``REPRO_WORKERS``, else the CPU count)
decides.
"""

from .plan import ChunkLease, TaskPlan, plan_leases
from .scheduler import Scheduler, default_workers
from .worker import execute_lease

__all__ = [
    "ChunkLease",
    "Scheduler",
    "TaskPlan",
    "default_workers",
    "execute_lease",
    "plan_leases",
]
