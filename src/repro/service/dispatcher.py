"""The service core: content-addressed cache front + lease dispatch.

The dispatcher is deliberately synchronous and single-threaded: every
method is called from the server's event loop (or directly from
tests), so its state transitions are atomic by construction — a chunk
arrives and its point's plan banks it, checkpointing to the shared
:class:`~repro.injection.store.CampaignStore`, in one step, and two
identical submissions can never both miss the in-flight table.

Traffic splits three ways at submit time, per point: a **cache hit**
(the store already holds a completed result with at least the
requested budget) is served without simulating; a **coalesced** point
(already in flight for another job) subscribes the new job to that
computation; a **fresh** point's remaining shots (after the store's
chunks for it are replayed) are split into block-aligned slices in the
:class:`~repro.parallel.plan.LeaseQueue` the campaign scheduler leases
from, which the head's local slots and remote pull runners drain
through one API.

A lease carries a deadline: a runner that crashes mid-run never
completes it, the lease expires, and its slices go back to the queue —
canonical block seeding makes the re-run bit-identical.
"""

from __future__ import annotations

import collections
import math
import numbers
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from .. import obs
from ..obs import trace
from ..injection.campaign import DEFAULT_CHUNK_SHOTS, _normalize_chunk
from ..injection.results import ZERO_PRIOR, ChunkResult, wilson_interval
from ..injection.spec import InjectionTask
from ..injection.store import CampaignStore, task_key
from ..injection.sweep import build_sweep
from ..parallel.plan import Lease, LeaseQueue, TaskPlan
# The runner side of the lease API, named here beside the dispatch side.
from ..parallel.worker import execute_lease_wire  # noqa: F401

#: Default lease time-to-live: a run not completed (or failed) this
#: many seconds after leasing is presumed lost to a runner crash and
#: requeued.
DEFAULT_LEASE_TTL_S = 120.0

#: Finished jobs the head keeps for status calls; past it the oldest
#: finished job is evicted (its results stay in the store).  Running
#: jobs are never evicted.
MAX_JOBS = 256

#: Service metric handles (cached once; obs.reset zeroes in place).
_OBS_JOBS = obs.counter("service.jobs")
_OBS_POINTS = obs.counter("service.points")
_OBS_CACHE_HITS = obs.counter("service.cache_hits")
_OBS_COALESCED = obs.counter("service.coalesced")
_OBS_LEASES = obs.counter("service.leases")
_OBS_SLICES = obs.counter("service.slices_completed")
_OBS_POINTS_DONE = obs.counter("service.points_done")
_OBS_JOBS_DONE = obs.counter("service.jobs_done")
_OBS_CRASHES = obs.counter("service.runner_crashes")
_OBS_FAILED = obs.counter("service.failed_leases")

#: Bucket edges (seconds) for the per-runner lease histograms: the
#: short end resolves local slices, the long end TTL requeues.
LEASE_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                10.0, 30.0, 60.0, 120.0)


def _lease_hist(kind: str, runner: str):
    """The per-runner lease histogram ``service.lease_<kind>_s`` with
    the runner id folded into the name (``/runner=<id>``) — the
    registry stays label-free and the Prometheus renderer splits the
    convention back into a real label.  ``queue`` runs from submission
    to lease, ``latency`` from submission to completion and ``run``
    from lease to completion: for the head's pipelined in-process slot
    that includes the time a lease waits behind the slot's other one."""
    return obs.registry().histogram(
        f"service.lease_{kind}_s/runner={runner}", LEASE_BOUNDS)


def _positive(value: Any, kind: type) -> bool:
    """``value`` is a finite, positive number of ``kind`` (not a bool)."""
    return isinstance(value, kind) and not isinstance(value, bool) \
        and 0 < value < math.inf


class DispatchError(ValueError):
    """A malformed request (bad spec, unknown lease) — client error."""


#: What ``/metrics`` folds of a runner's registry snapshot: section ->
#: the fields each of its rows must carry (``()``: the row is a bare
#: number).  Any value a row holds must be a number or a list of them.
_SNAPSHOT_ROWS = {"counters": (), "gauges": (), "events": (),
                  "spans": ("total_s", "count"),
                  "histograms": ("bounds", "counts", "total", "sum")}
_PROFILE_ROWS = {"sampling": (), "kernels": ("total_s", "calls", "ops"),
                 "stages": ("total_s", "calls"),
                 "paths": ("total_s", "count")}


def _numeric(value: Any) -> bool:
    return isinstance(value, numbers.Real) or (
        isinstance(value, list)
        and all(isinstance(v, numbers.Real) for v in value))


def _check_snapshot(snap: Any, rows: Mapping[str, tuple],
                    where: str) -> None:
    """Refuse a runner snapshot that :func:`repro.obs.merge_snapshots`
    could not fold: stored as it is, it would break every later
    ``/metrics`` and the telemetry writer until that runner reported
    again."""
    if not isinstance(snap, Mapping):
        raise DispatchError(f"{where} must be an object")
    for section, fields in rows.items():
        table = snap.get(section, {})
        if not isinstance(table, Mapping):
            raise DispatchError(f"{where}.{section} must be an object")
        for name, row in table.items():
            ok = isinstance(name, str) and (
                _numeric(row) if not fields else
                isinstance(row, Mapping) and all(f in row for f in fields)
                and all(map(_numeric, row.values())))
            if not ok:
                raise DispatchError(
                    f"{where}.{section}[{name!r}] is malformed")


class UnknownJobError(KeyError):
    """Status query for a job id this service never issued."""


def _job_seq(job_id: str) -> int:
    """The sequence number of a ``job-N`` id; 0 for any other string."""
    prefix, _, seq = job_id.partition("-")
    return int(seq) if prefix == "job" and seq.isdecimal() \
        and seq == str(int(seq)) else 0


class PointState(TaskPlan):
    """One in-flight point: a :class:`~repro.parallel.plan.TaskPlan`
    plus who is waiting, its trace context and its submission time.
    Service jobs run their spec's budget without adaptive stopping —
    what makes a cached result reusable by every later request for the
    key — so the plan is built with ``adaptive=None``."""

    def __init__(self, key: str, task: InjectionTask, slice_shots: int,
                 store: CampaignStore,
                 ctx: Optional[trace.TraceContext] = None) -> None:
        super().__init__(0, task, ZERO_PRIOR, slice_shots, None,
                         store=store, key=key)
        #: The creating job's point span context (leases derive theirs).
        self.ctx = ctx
        #: Every slice is queued at submission: the queue and latency
        #: histograms measure from it.
        self.created = time.time()
        #: Job ids subscribed to this computation.
        self.jobs: set = set()

    def row(self) -> Dict[str, object]:
        """Progress row for status responses (partial results included:
        a client polling an in-progress point sees live counts)."""
        row: Dict[str, object] = {
            "key": self.key, "label": self.task.label,
            "status": "running" if (self.leased or self.shots) else
            "queued",
            "shots": self.shots, "target": self.target,
            "errors": self.errors,
        }
        if self.shots:
            lo, hi = wilson_interval(self.errors, self.shots)
            row["ler"] = self.errors / self.shots
            row["ler_lo"] = lo
            row["ler_hi"] = hi
        return row


class Job:
    """One submitted sweep: an ordered list of points and their
    submit-time classification."""

    def __init__(self, job_id: str, tasks: List[InjectionTask],
                 keys: List[str]) -> None:
        self.job_id = job_id
        self.tasks = tasks
        self.keys = keys
        self.created = time.time()
        #: Root span context (``None`` with tracing disabled).  The
        #: trace id is a pure function of (job id, point keys), so the
        #: same submission order yields the same trace on every head
        #: and every dispatch topology.
        self.ctx: Optional[trace.TraceContext] = None
        if trace.is_enabled():
            trace_id = trace.derive_id(job_id, *keys)
            self.ctx = trace.TraceContext(
                trace_id, trace.derive_id(trace_id, "job"))
        self.cache_hits = 0
        self.coalesced = 0
        self.fresh = 0
        #: Keys whose computation this job still waits on.
        self.pending: set = set()

    @property
    def trace_id(self) -> Optional[str]:
        return self.ctx.trace_id if self.ctx is not None else None

    @property
    def done(self) -> bool:
        return not self.pending


class Dispatcher:
    """Canonicalise, dedupe, cache-check and dispatch sweep traffic.

    Single-threaded by contract: the HTTP server calls every method on
    its event loop; tests call them directly.  The shared store is the
    durable system of record — jobs are in-memory session objects, but
    every completed chunk and point survives a service restart.
    """

    def __init__(self, store: CampaignStore,
                 slice_shots: Optional[int] = None,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S) -> None:
        self.store = store
        self.slice_shots = _normalize_chunk(
            DEFAULT_CHUNK_SHOTS if slice_shots is None else slice_shots)
        self.lease_ttl_s = float(lease_ttl_s)
        if not (math.isfinite(self.lease_ttl_s) and self.lease_ttl_s > 0):
            # A runner counts as alive for lease_ttl_s seconds: at zero
            # none ever does, and the lease split divides by their count.
            raise ValueError(f"lease_ttl_s must be a positive number of "
                             f"seconds, got {lease_ttl_s}")
        #: In-flight points by task key (completed points leave).
        self.points: Dict[str, PointState] = {}
        #: Their pending slices, shared among the runners.
        self.queue = LeaseQueue()
        #: Running jobs and the last ``MAX_JOBS`` finished ones.
        self.jobs: Dict[str, Job] = {}
        #: Finished job ids in finish order, oldest first.
        self._done_jobs: collections.deque = collections.deque()
        #: ``key -> (progress row, result row)`` of every finished
        #: point a status call has served.  A key names one task spec
        #: and its done record never changes, so each is read from the
        #: store and built once, for every job and poll that shows it.
        self._finished: Dict[str, tuple] = {}
        self._leases: Dict[str, Lease] = {}
        #: The task of every key submitted, shared by all its jobs.
        self._tasks: Dict[str, InjectionTask] = {}
        self._jobs_issued = 0
        #: Fresh-work progress (banked-prefix shots vs. targets of
        #: every point the service ever queued; cache hits excluded —
        #: they are not work).
        self._shots_done = 0
        self._shots_target = 0
        #: Completed spans by trace id (idempotent absorb by span id).
        self.traces = trace.TraceStore()
        #: Runner health: ``id → {last_seen, leases, completed,
        #: failed, expired, lost}``; ``lost`` flips on a TTL expiry
        #: with no other lease outstanding and clears on next contact.
        self.runners: Dict[str, Dict[str, object]] = {}
        #: Latest cumulative registry snapshot per remote runner /
        #: forked local worker, merged by replacement (each is
        #: cumulative for its process, so replacement is idempotent
        #: like counters).
        self._runner_snaps: Dict[str, Dict[str, object]] = {}
        #: Called with a job's id when its last point finishes (the
        #: server wakes that job's held-open streams with it).
        self.on_job_done: Optional[Callable[[str], None]] = None

    # -- submission ----------------------------------------------------
    def submit(self, spec: Mapping[str, Any]) -> Dict[str, object]:
        """Accept one sweep spec; classify every point; queue fresh work.

        Returns the submit receipt: job id plus the cache-hit /
        coalesced / fresh split — a client that sees ``fresh == 0`` and
        ``coalesced == 0`` knows its answer never touched a simulator.
        """
        try:
            campaign = build_sweep(spec)
            tasks = campaign._seeded()
        except (KeyError, TypeError, ValueError) as exc:
            raise DispatchError(f"bad sweep spec: {exc}") from exc
        self._jobs_issued += 1
        job_id = f"job-{self._jobs_issued}"
        keys = [task_key(t) for t in tasks]
        # One task object per key however often it is submitted: a
        # finished job holds the head's tasks, not copies of them.
        tasks = [self._tasks.setdefault(key, task)
                 for key, task in zip(keys, tasks)]
        job = Job(job_id, tasks, keys)
        for task, key in zip(tasks, keys):
            point_ctx = job.ctx.child("point", key) \
                if job.ctx is not None else None
            if key in self.points:
                job.coalesced += 1
                _OBS_COALESCED.inc()
                self.points[key].jobs.add(job_id)
                job.pending.add(key)
                continue
            banked = self.store.result_for(task, key)
            point = None
            if banked is None or banked.shots < task.shots:
                point = PointState(key, task, self.slice_shots, self.store,
                                   ctx=point_ctx)
            if point is None or point.done:
                # Done on arrival also when the store held every chunk
                # but no done record (a head killed in between): the
                # plan has just written it.
                job.cache_hits += 1
                _OBS_CACHE_HITS.inc()
                if point_ctx is not None:
                    self.traces.absorb([trace.make_span(
                        point_ctx, "point", 0.0, key=key,
                        cache_hit=True)])
                continue
            job.fresh += 1
            point.jobs.add(job_id)
            self.points[key] = point
            self.queue.add(point)
            job.pending.add(key)
            _OBS_POINTS.inc()
            self._shots_done += point.shots
            self._shots_target += point.target
        self.jobs[job_id] = job
        _OBS_JOBS.inc()
        if job.done:
            self._retire(job)
        obs.event("service.job_submitted")
        return self._receipt(job)

    def _receipt(self, job: Job) -> Dict[str, object]:
        receipt: Dict[str, object] = {
            "job": job.job_id,
            "points": len(job.tasks),
            "cache_hits": job.cache_hits,
            "coalesced": job.coalesced,
            "fresh": job.fresh,
            "state": "done" if job.done else "running",
        }
        if job.trace_id is not None:
            receipt["trace"] = job.trace_id
        return receipt

    def _retire(self, job: Job) -> None:
        """Count a finished job, close its trace, and evict the oldest
        finished jobs past ``MAX_JOBS``."""
        _OBS_JOBS_DONE.inc()
        if job.ctx is not None:
            self.traces.absorb([trace.make_span(
                job.ctx, "job", time.time() - job.created,
                t0=job.created, job=job.job_id, points=len(job.tasks))])
            self.traces.finish(job.trace_id)
        self._done_jobs.append(job.job_id)
        while len(self._done_jobs) > MAX_JOBS:
            del self.jobs[self._done_jobs.popleft()]

    def _job(self, job_id: str) -> Optional[Job]:
        """The job of ``job_id``; ``None`` when it was issued and has
        since been evicted; :class:`UnknownJobError` when never issued."""
        job = self.jobs.get(job_id)
        if job is None and not 0 < _job_seq(job_id) <= self._jobs_issued:
            raise UnknownJobError(job_id)
        return job

    # -- status / results ----------------------------------------------
    def job_status(self, job_id: str,
                   include_results: bool = True) -> Dict[str, object]:
        """Live status of one job, with partial per-point progress and
        — once complete — the full result rows, straight from the
        content-addressed store.  A finished job evicted past
        ``MAX_JOBS`` reports only ``"state": "done"`` and
        ``"evicted": true``."""
        job = self._job(job_id)
        if job is None:
            return {"job": job_id, "state": "done", "evicted": True}
        status = self._receipt(job)
        status["created"] = job.created
        rows: List[Dict[str, object]] = []
        shots_done = shots_target = 0
        for task, key in zip(job.tasks, job.keys):
            point = self.points.get(key)
            if point is not None:
                rows.append(point.row())
                shots_done += point.shots
                shots_target += point.target
                continue
            shots_target += task.shots
            if key not in self._finished:
                result = self.store.result_for(task, key)
                if result is None:
                    # Finalized while this status call iterated?  Cannot
                    # happen single-threaded; a missing record means the
                    # store was swapped out from under the service.
                    rows.append({"key": key, "label": task.label,
                                 "status": "absent"})
                    continue
                result_row = result.to_row()
                result_row["key"] = key
                self._finished[key] = (
                    {"key": key, "label": task.label, "status": "done",
                     "shots": result.shots, "target": task.shots,
                     "errors": result.errors,
                     "ler": result.logical_error_rate}, result_row)
            shots_done += task.shots
            rows.append(self._finished[key][0])
        status["points_done"] = sum(1 for r in rows
                                    if r.get("status") == "done")
        status["shots_done"] = shots_done
        status["shots_target"] = shots_target
        status["tasks"] = rows
        if job.done and include_results:
            status["results"] = [self._finished[key][1]
                                 for key in job.keys
                                 if key in self._finished]
        status["telemetry"] = self._job_telemetry()
        return status

    def _job_telemetry(self) -> Dict[str, object]:
        """The engine-counter snapshot slice a polling client cares
        about (per-process; a ``workers == 1`` head runs its slices
        in the service process, so it keeps all of them)."""
        snap = obs.registry().snapshot()
        counters = snap.get("counters", {})
        keep = {k: v for k, v in counters.items()
                if k.startswith(("engine.", "service.", "decode."))}
        return {"counters": keep, "uptime_s": snap.get("uptime_s")}

    def overview(self) -> Dict[str, object]:
        """Service-level status (``repro status`` with no job)."""
        return {
            "jobs": len(self.jobs),
            "jobs_running": sum(1 for j in self.jobs.values()
                                if not j.done),
            "points_inflight": len(self.points),
            "slices_pending": sum(len(p.pending)
                                  for p in self.points.values()),
            "leases_outstanding": len(self._leases),
            "store": self.store.path,
            "store_done": len(self.store),
            "counters": self.service_counters(),
            "job_ids": sorted(self.jobs,
                              key=lambda j: int(j.split("-")[1])),
            "runners": {rid: dict(h)
                        for rid, h in sorted(self.runners.items())},
            "progress": self.progress(),
        }

    def service_counters(self) -> Dict[str, int]:
        return {
            "jobs": _OBS_JOBS.value,
            "jobs_done": _OBS_JOBS_DONE.value,
            "points": _OBS_POINTS.value,
            "points_done": _OBS_POINTS_DONE.value,
            "cache_hits": _OBS_CACHE_HITS.value,
            "coalesced": _OBS_COALESCED.value,
            "leases": _OBS_LEASES.value,
            "slices_completed": _OBS_SLICES.value,
            "runner_crashes": _OBS_CRASHES.value,
            "failed_leases": _OBS_FAILED.value,
        }

    def progress(self) -> Dict[str, int]:
        """Fresh-work progress in the telemetry snapshot's ``progress``
        shape, so ``repro report`` renders service files unchanged."""
        return {
            "points_done": _OBS_POINTS_DONE.value,
            "points_total": _OBS_POINTS.value,
            "shots_done": self._shots_done,
            "shots_target": self._shots_target,
        }

    # -- lookup --------------------------------------------------------
    def lookup(self, spec: Optional[Mapping[str, Any]] = None,
               key: Optional[str] = None) -> List[Dict[str, object]]:
        """The cache-hit path as a read-only query: rows for a sweep
        spec's points (seeded exactly as a submission would be) or for
        a key prefix.  In-flight points report live partial counts."""
        rows: List[Dict[str, object]] = []
        if spec is not None:
            try:
                tasks = build_sweep(spec)._seeded()
            except (KeyError, TypeError, ValueError) as exc:
                raise DispatchError(f"bad sweep spec: {exc}") from exc
            for task in tasks:
                point = self.points.get(task_key(task))
                rows.append(self.store.lookup(task) if point is None
                            else dict(point.row(), status="in-flight"))
        elif key is not None:
            for k in self.store.find_keys(str(key)):
                rows.append(self.store.key_stats(k))
            rows += [dict(point.row(), status="in-flight")
                     for k, point in self.points.items()
                     if k.startswith(str(key))
                     and all(r["key"] != k for r in rows)]
        else:
            raise DispatchError("lookup needs a sweep spec or a key "
                                "prefix")
        return rows

    # -- lease / complete (runner API) ---------------------------------
    def lease(self, runner: str = "anonymous", max_leases: int = 1,
              ttl_s: Optional[float] = None,
              now: Optional[float] = None) -> List[Lease]:
        """Hand out up to ``max_leases`` runs off the lease queue,
        shared among :meth:`_lessees`.  A ``max_leases`` that is not a
        positive integer, or a ``ttl_s`` that is not a positive finite
        number, is a :class:`DispatchError` (HTTP 400)."""
        if not _positive(max_leases, numbers.Integral):
            raise DispatchError(f"lease max must be a positive integer, "
                                f"got {max_leases!r}")
        if ttl_s is not None and not _positive(ttl_s, numbers.Real):
            raise DispatchError(f"lease ttl_s must be a positive number "
                                f"of seconds, got {ttl_s!r}")
        now = time.monotonic() if now is None else now
        self.expire(now)
        ttl = self.lease_ttl_s if ttl_s is None else float(ttl_s)
        runner = str(runner)
        health = self._touch_runner(runner)
        lessees = self._lessees()
        out: List[Lease] = []
        while len(out) < max_leases:
            lease = self.queue.lease(lessees, runner)
            if lease is None:
                break
            lease.runner, lease.deadline, lease.t_leased = \
                runner, now + ttl, now
            point = lease.plan
            if point.ctx is not None:
                lease.trace = point.ctx.child("lease", lease.start)
            self._leases[lease.lease_id] = lease
            _OBS_LEASES.inc()
            health["leases"] = int(health["leases"]) + 1
            _lease_hist("queue", runner).observe(
                max(0.0, time.time() - point.created))
            out.append(lease)
        return out

    def _lessees(self) -> int:
        """Runners that hold a lease or were seen within one lease TTL
        (local slots included: they lease continuously)."""
        holders = {lease.runner for lease in self._leases.values()}
        seen = time.time() - self.lease_ttl_s
        return sum(1 for rid, health in self.runners.items()
                   if rid in holders or health["last_seen"] > seen)

    def _touch_runner(self, runner: str) -> Dict[str, object]:
        """Record contact from a runner (lease / complete / fail); a
        runner marked lost by TTL expiry comes back alive here."""
        health = self.runners.get(runner)
        if health is None:
            health = self.runners[runner] = {
                "leases": 0, "completed": 0, "failed": 0,
                "expired": 0, "lost": False}
        elif health["lost"]:
            health["lost"] = False
            obs.event("service.runner_recovered")
        health["last_seen"] = time.time()
        return health

    def complete(self, lease_id: str,
                 chunk_rows: List[Mapping[str, Any]],
                 runner: Optional[str] = None,
                 key: Optional[str] = None,
                 spans: Optional[List[Mapping[str, Any]]] = None,
                 obs_snapshot: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, object]:
        """Bank a finished run's chunk rows through its point's plan,
        which appends each to the store as the frontier folds it.

        Idempotent and late-arrival tolerant: chunks of a lease that
        already expired are matched by the payload ``key`` and accepted
        if they cover new ground, discarded otherwise.  ``spans`` merge
        by span id, so a re-run's duplicates collapse; ``obs_snapshot``
        (a runner's cumulative registry) replaces that runner's last
        one.  A malformed chunk row, a non-string ``key`` or a snapshot
        the metrics merge could not fold is a :class:`DispatchError`
        (HTTP 400) raised before any state changes: the lease stays
        outstanding, so it still expires and is requeued.
        """
        if key is not None and not isinstance(key, str):
            raise DispatchError(f"complete key must be a string, "
                                f"got {key!r}")
        if obs_snapshot:
            _check_snapshot(obs_snapshot, _SNAPSHOT_ROWS, "obs")
            _check_snapshot(obs_snapshot.get("profile") or {},
                            _PROFILE_ROWS, "obs.profile")
        try:
            chunks = [ChunkResult.from_row(dict(row))
                      for row in chunk_rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise DispatchError(f"malformed chunk row: {exc}") from exc
        if spans:
            self.traces.absorb(spans)
        lease = self._leases.pop(lease_id, None)
        runner_id = lease.runner if lease is not None else runner
        if runner_id:
            health = self._touch_runner(str(runner_id))
            health["completed"] = int(health["completed"]) + 1
            if obs_snapshot:
                self._runner_snaps[str(runner_id)] = dict(obs_snapshot)
        if lease is not None:
            _lease_hist("run", lease.runner).observe(
                max(0.0, time.monotonic() - lease.t_leased))
            _lease_hist("latency", lease.runner).observe(
                max(0.0, time.time() - lease.plan.created))
        point_key = lease.key if lease is not None else key
        point = self.points.get(point_key) if point_key else None
        if point is None:
            # Unknown lease and no in-flight point: a typo, or a very
            # late completion of an already-finalized point.  Nothing
            # to absorb into — report staleness, not an error.
            return {"ok": True, "stale": True, "accepted": 0,
                    "point_done": point_key is not None
                    and point_key in self.store.keys()}
        accepted = 0
        frontier = point.shots
        for chunk in chunks:
            if point.record(chunk):
                accepted += 1
        self._shots_done += point.shots - frontier
        _OBS_SLICES.inc(len(chunks))
        if point.done:
            self._finalize(point)
        return {"ok": True, "accepted": accepted,
                "point_done": point.done}

    def fail(self, lease_id: str, error: str = "") -> Dict[str, object]:
        """A runner reports it could not execute a run: requeue its
        slices (another runner — or a local slot — picks them up)."""
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return {"ok": True, "stale": True}
        health = self._touch_runner(lease.runner)
        health["failed"] = int(health["failed"]) + 1
        _OBS_FAILED.inc()
        obs.event("service.lease_failed")
        requeued = lease.key in self.points
        if requeued:
            self.queue.give_back([lease])
        return {"ok": True, "requeued": requeued}

    def expire(self, now: Optional[float] = None) -> int:
        """Requeue every lease past its deadline (runner crash path)."""
        now = time.monotonic() if now is None else now
        expired = [lease for lease in self._leases.values()
                   if lease.deadline <= now]
        for lease in expired:
            del self._leases[lease.lease_id]
            _OBS_CRASHES.inc()
            obs.event("service.lease_expired")
            if lease.key in self.points:
                self.queue.give_back([lease])
            health = self.runners.get(lease.runner)
            if health is not None:
                health["expired"] = int(health["expired"]) + 1
                # Every lease gone and the last contact was the
                # expiry: presume the runner itself crashed (once per
                # transition — churn shows in `repro report`).
                outstanding = any(l.runner == lease.runner
                                  for l in self._leases.values())
                if not outstanding and not health["lost"]:
                    health["lost"] = True
                    obs.event("service.runner_lost")
        return len(expired)

    # -- completion ----------------------------------------------------
    def _finalize(self, point: PointState) -> None:
        """Retire a completed point (its plan has written the done
        record) and release the jobs waiting on it."""
        del self.points[point.key]
        _OBS_POINTS_DONE.inc()
        point_dur = time.time() - point.created
        for job_id in point.jobs:
            job = self.jobs.get(job_id)
            if job is None:
                continue
            if job.ctx is not None:
                # Each subscriber's trace gets its own point span
                # (coalesced jobs included); the lease/phase children
                # hang off the creating job's span.
                ctx = job.ctx.child("point", point.key)
                self.traces.absorb([trace.make_span(
                    ctx, "point", point_dur, t0=point.created,
                    key=point.key, shots=point.shots,
                    coalesced=ctx != point.ctx)])
            job.pending.discard(point.key)
            if job.done:
                obs.event("service.job_done")
                self._retire(job)
                if self.on_job_done is not None:
                    self.on_job_done(job_id)

    # -- observability ------------------------------------------------
    def job_trace(self, job_id: str) -> Dict[str, object]:
        """The causally-linked span tree for one job (parents before
        children; spans from remote runners included once their
        completions have been absorbed).  A finished job whose trace
        the span cap evicted, or whose job ``MAX_JOBS`` evicted, reports
        no spans and ``"evicted": true``."""
        job = self._job(job_id)
        if job is None:
            return {"job": job_id, "trace": None, "spans": [],
                    "evicted": True}
        if job.trace_id is None:
            return {"job": job_id, "trace": None, "spans": []}
        if self.traces.evicted(job.trace_id):
            return {"job": job_id, "trace": job.trace_id, "spans": [],
                    "evicted": True}
        return {"job": job_id, "trace": job.trace_id,
                "spans": self.traces.spans(job.trace_id)}

    def metrics_snapshot(self) -> Dict[str, object]:
        """The head's registry merged with every remote runner's /
        forked local worker's latest cumulative snapshot — the
        `/metrics` scrape body (JSON form; the Prometheus rendering is
        :func:`repro.obs.metrics.render_prometheus` of this)."""
        snap = obs.merge_snapshots(obs.registry().snapshot(),
                                   list(self._runner_snaps.values()))
        profile = obs.prof.snapshot_active()
        if profile is not None:
            snap["profile"] = profile
        return snap
