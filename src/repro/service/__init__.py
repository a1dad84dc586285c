"""Campaign-as-a-service: async dispatch front end + result cache.

The ROADMAP's "millions of users" rung: most real traffic asks for the
same popular ``(code, d, p, fault, decoder, sampler)`` points over and
over, and the engine's determinism work makes a cached answer exactly
as trustworthy as a fresh simulation.  The service therefore treats a
shared content-addressed :class:`~repro.injection.store.CampaignStore`
as the system of record and simulates **only on cache miss**:

* :mod:`repro.service.dispatcher` — the synchronous core: canonicalise
  each sweep point to its task key, split traffic into cache hits
  (served from the store, including partial results for in-progress
  points), coalesced submissions (identical concurrent requests share
  one in-flight computation) and fresh work (block-aligned slice
  leases with crash-expiry requeue).
* :mod:`repro.service.server` — the asyncio JSON-over-HTTP front end
  (stdlib only) plus its local slots, in-process or each on a forked
  :class:`~repro.parallel.worker.Worker`.
* :mod:`repro.service.runner` — the pull-based runner loop: a second
  host leases slices over the same HTTP API and returns chunk rows
  for the head to bank (``repro serve --runner URL``).
* :mod:`repro.service.client` — the stdlib HTTP client behind
  ``repro submit`` / ``repro status`` (and the runner).
* :mod:`repro.service.fleet` — ``repro fleet URL...``: poll several
  heads' ``/status`` + ``/metrics`` and fold them into one report.

Every dispatch topology — local slots, remote runners, or a plain
``repro campaign`` against the same store — produces bit-identical
counts: slices are canonical-block aligned, so a chunk's counts are a
pure function of ``(task, start, shots)`` no matter who ran it.
Observability rides the same wire: leases carry deterministic span
contexts (:mod:`repro.obs.trace`), completions carry span summaries
and runner registry snapshots, and ``GET /metrics`` serves the merged
view in Prometheus text or JSON.
"""

from .dispatcher import Dispatcher, DispatchError, UnknownJobError
from .client import ServiceClient, ServiceError
from .fleet import fleet_overview, render_fleet
from .server import CampaignService

__all__ = [
    "CampaignService",
    "Dispatcher",
    "DispatchError",
    "ServiceClient",
    "ServiceError",
    "UnknownJobError",
    "fleet_overview",
    "render_fleet",
]
