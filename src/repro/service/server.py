"""The asyncio JSON-over-HTTP front end and its local slots.

Stdlib only: a deliberately small HTTP/1.1 subset over :mod:`asyncio`
streams (one JSON request, one JSON response, ``Connection: close``) —
enough for ``curl``, :class:`~repro.service.client.ServiceClient` and
pull runners.  All dispatcher state lives on the event-loop thread, so
no locks are needed and the coalescing / cache-split decisions are
race-free by construction.

Each local slot is a lessee of the dispatcher's queue, like a remote
runner: lease → execute → complete, or fail on error.  Only execution
leaves the loop, on a thread per slot.  With ``workers == 1`` the run
executes in the service process (so the ``engine.*`` counters a client
polls are live), and the slot keeps the campaign scheduler's
``PIPELINE_DEPTH`` leases in flight: its thread starts the next run
while the loop completes the last one.  With ``workers > 1`` each slot
sends one wire lease at a time to its own forked
:class:`~repro.parallel.worker.Worker`, the process
``Campaign.run(workers=N)`` forks.  A worker that dies fails its own
lease and is replaced; the workers exit with their head.  Slices are
canonical-block aligned, so the executor only changes wall-clock.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from .. import obs
from ..injection.store import CampaignStore
from ..obs.sinks import TelemetryWriter
from ..parallel import worker
from ..parallel.plan import Lease
from ..parallel.scheduler import PIPELINE_DEPTH
from .dispatcher import Dispatcher, DispatchError, UnknownJobError

#: How often the housekeeping task expires stale leases and (when
#: telemetry is on) writes a snapshot record.
HOUSEKEEP_S = 1.0
#: Longest an idle local pump waits before it asks for a lease again
#: (``/submit`` wakes it at once; requeued slices appear unannounced).
PUMP_IDLE_S = 0.05
#: Cap on accepted request bodies (a sweep spec is tiny; chunk-row
#: completions are bounded by a run's slices, not shots).
MAX_BODY = 8 * 1024 * 1024
#: Default emit interval for streaming job-progress responses.
STREAM_INTERVAL_S = 0.5


def _execute_slice(wire: Dict[str, object]) -> Dict[str, object]:
    """Execute a wire lease in this process (``workers == 1``), whose
    registry is the head's: no snapshot rides the payload."""
    from .dispatcher import execute_lease_wire

    return execute_lease_wire(wire)


class _SlotThread:
    """A local slot's thread: it executes the wire leases the slot
    sends, in order, and settles each one's future on the event loop.
    A lease whose future was cancelled before it started is skipped."""

    def __init__(self, slot: int, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"repro-slice-{slot}")
        self._thread.start()

    def submit(self, execute: Callable[[Dict[str, object]], Any],
               wire: Dict[str, object]) -> asyncio.Future:
        reply = self._loop.create_future()
        self._queue.put((reply, execute, wire))
        return reply

    def stop(self) -> None:
        """Let the lease executing finish (its reply is discarded),
        skip the cancelled ones queued behind it, and join."""
        self._queue.put(None)
        self._thread.join()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            reply, execute, wire = item
            if reply.cancelled():
                continue
            try:
                outcome = (True, execute(wire))
            except BaseException as exc:  # noqa: BLE001 — the pump decides
                outcome = (False, exc)
            self._loop.call_soon_threadsafe(_settle, reply, *outcome)


def _settle(reply: asyncio.Future, ok: bool, value: Any) -> None:
    if not reply.cancelled():
        if ok:
            reply.set_result(value)
        else:
            reply.set_exception(value)


class _BadRequest(Exception):
    """Malformed HTTP request (line, headers, or body)."""


class CampaignService:
    """One service instance: HTTP listener + dispatcher + local pump.

    ``port=0`` binds an ephemeral port (tests); the bound port is on
    :attr:`port` after :meth:`start`.  ``workers=0`` disables the local
    pump entirely — the service becomes a pure dispatch head served
    only by remote pull runners.
    """

    def __init__(self, store: Union[CampaignStore, str],
                 host: str = "127.0.0.1", port: int = 8765,
                 workers: int = 1,
                 slice_shots: Optional[int] = None,
                 lease_ttl_s: Optional[float] = None,
                 telemetry: Optional[str] = None) -> None:
        self.store = store if isinstance(store, CampaignStore) \
            else CampaignStore(store)
        kwargs: Dict[str, Any] = {"slice_shots": slice_shots}
        if lease_ttl_s is not None:
            kwargs["lease_ttl_s"] = lease_ttl_s
        self.dispatcher = Dispatcher(self.store, **kwargs)
        self.host = host
        self.port = port
        self.workers = int(workers)
        self.telemetry_path = telemetry
        self._writer: Optional[TelemetryWriter] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: One thread per local slot, the only one to execute its
        #: leases (and so the only writer on its forked worker's pipe).
        self._slots: List[_SlotThread] = []
        #: One forked worker per local slot (``workers > 1`` only).
        self._workers: List[worker.Worker] = []
        self._tasks: list = []
        self._stopping = False
        self._started = time.perf_counter()
        self._thread: Optional[threading.Thread] = None
        #: Set when its job finishes: the job's held-open streams wait
        #: on it between progress records, so the final record leaves
        #: at completion, not at the next emit tick.
        self._job_done: Dict[str, asyncio.Event] = {}
        self.dispatcher.on_job_done = self._wake_streams
        #: Writers of the held-open job streams: ``stop`` closes them,
        #: so a following client sees its stream end, not stall.
        self._streams: set = set()
        #: Set by ``/submit``: the idle local pumps wait on it.
        self._work = asyncio.Event()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._started = time.perf_counter()
        if self.telemetry_path:
            self._writer = TelemetryWriter(self.telemetry_path)
        if self.workers > 1:
            # Forked before the listener and any slot thread exist, so
            # the workers inherit neither.
            self._workers = [worker.Worker(slot)
                             for slot in range(self.workers)]
        loop = asyncio.get_running_loop()
        self._slots = [_SlotThread(slot, loop)
                       for slot in range(max(self.workers, 0))]
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        for slot in range(max(self.workers, 0)):
            self._tasks.append(
                asyncio.ensure_future(self._pump(slot)))
        self._tasks.append(asyncio.ensure_future(self._housekeeping()))
        obs.event("service.started",
                  f"listening on {self.url} "
                  f"({self.workers} local worker(s))", url=self.url)

    async def stop(self) -> None:
        self._stopping = True
        for writer in list(self._streams):
            writer.close()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Leases already executing finish first: a slot's thread is
        # the only writer on its worker's pipe.
        for slot_thread in self._slots:
            slot_thread.stop()
        self._slots = []
        worker.stop(self._workers)
        self._workers = []
        if self._writer is not None:
            self._writer.write(self._snapshot_record(final=True))
            self._writer.close()
            self._writer = None
        self.store.close()
        obs.event("service.stopped", "service shut down")

    # Background-thread lifecycle (tests, CI smoke assertions from the
    # same process).
    def start_background(self, timeout_s: float = 15.0) -> str:
        """Run the service on a dedicated event-loop thread; returns
        the base URL once the port is bound."""
        ready = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._bg_loop = loop
            loop.run_until_complete(self.start())
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        if not ready.wait(timeout_s):
            raise RuntimeError("service failed to start")
        return self.url

    def stop_background(self, timeout_s: float = 15.0) -> None:
        loop = getattr(self, "_bg_loop", None)
        if loop is None:
            return
        asyncio.run_coroutine_threadsafe(self.stop(), loop) \
            .result(timeout_s)
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout_s)
            self._thread = None

    # -- local pump ----------------------------------------------------
    async def _pump(self, slot: int) -> None:
        """One local slot: lease → execute (off-loop) → complete, through
        the dispatcher API remote runners use.

        The in-process slot (``workers == 1``) keeps ``PIPELINE_DEPTH``
        leases in flight, as the campaign scheduler does per worker:
        they queue on its slot thread, so the next run is already
        executing while the loop completes the last one and leases
        another.  A forked slot holds one lease: its thread is the only
        writer on its worker's pipe, and a dead worker fails exactly
        that lease.  An idle pump waits for ``/submit`` to wake it, or
        ``PUMP_IDLE_S`` at most."""
        runner = f"local-{slot}"
        depth = 1 if self._workers else PIPELINE_DEPTH
        #: Leases sent to the slot thread and their replies, oldest
        #: first.
        inflight: Deque[Tuple[Lease, asyncio.Future]] = deque()
        try:
            while not self._stopping:
                while len(inflight) < depth:
                    leases = self.dispatcher.lease(runner=runner,
                                                   max_leases=1)
                    if not leases:
                        break
                    execute = self._workers[slot].call if self._workers \
                        else _execute_slice
                    inflight.append((leases[0], self._slots[slot].submit(
                        execute, leases[0].to_wire())))
                if not inflight:
                    # Cleared in the same loop step as the empty lease,
                    # so a submit cannot slip between the two.
                    self._work.clear()
                    try:
                        await asyncio.wait_for(self._work.wait(),
                                               PUMP_IDLE_S)
                    except asyncio.TimeoutError:
                        pass
                    continue
                lease, reply = inflight[0]
                try:
                    payload = await reply
                except Exception as exc:  # noqa: BLE001 — requeue, serve on
                    payload = {"error": repr(exc)}
                inflight.popleft()
                if payload is None:
                    payload = {"error": self._replace_worker(slot)}
                if "error" in payload:
                    self.dispatcher.fail(lease.lease_id, payload["error"])
                    obs.event("service.local_slice_error",
                              payload["error"], lease=lease.lease_id)
                    await asyncio.sleep(PUMP_IDLE_S)
                    continue
                self.dispatcher.complete(payload["lease"],
                                         payload["chunks"], runner=runner,
                                         key=payload.get("key"),
                                         spans=payload.get("spans"),
                                         obs_snapshot=payload.get("obs"))
        except asyncio.CancelledError:
            # A queued run never starts; one already executing finishes
            # on its thread (``stop`` waits for it) and is discarded.
            for lease, reply in inflight:
                reply.cancel()
                self.dispatcher.fail(lease.lease_id, "pump cancelled")
            raise

    def _replace_worker(self, slot: int) -> str:
        """Give ``slot`` a fresh worker in place of its dead one (no other
        slot is touched) and return the failure its lease reports."""
        dead = self._workers[slot]
        dead.kill()
        self._workers[slot] = worker.Worker(slot)
        error = (f"local worker {slot} died "
                 f"(exit code {dead.process.exitcode})")
        obs.event("service.worker_replaced",
                  f"{error}; started a fresh one", slot=slot)
        return error

    async def _housekeeping(self) -> None:
        while not self._stopping:
            await asyncio.sleep(HOUSEKEEP_S)
            self.dispatcher.expire()
            if self._writer is not None:
                self._writer.write(self._snapshot_record())

    def _snapshot_record(self, final: bool = False) -> Dict[str, object]:
        """A ``repro report``-compatible snapshot: the registry dump
        plus service progress/counters.  No ``final`` flag until the
        service actually stops — long-lived service telemetry is the
        in-progress-report case by design."""
        rec = dict(self.dispatcher.metrics_snapshot())
        rec["kind"] = "snapshot"
        rec["elapsed_s"] = round(time.perf_counter() - self._started, 3)
        rec["progress"] = self.dispatcher.progress()
        rec["service"] = self.dispatcher.service_counters()
        rec["service"]["jobs_total"] = len(self.dispatcher.jobs)
        if self.dispatcher.runners:
            rec["runners"] = {rid: dict(h) for rid, h
                              in self.dispatcher.runners.items()}
        if final:
            rec["final"] = True
        return rec

    # -- HTTP ----------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            method, path, query, accept, body = \
                await self._read_request(reader)
        except _BadRequest as exc:
            await self._write_json(writer, 400, {"error": str(exc)})
            return
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 — surface as HTTP 500
            await self._write_json(writer, 500, {"error": repr(exc)})
            return
        try:
            if method == "GET" and path.startswith("/jobs/") \
                    and query.get("stream") in ("1", "true", "yes"):
                await self._stream_job(writer, path[len("/jobs/"):],
                                       query)
                return
            if method == "GET" and path == "/metrics":
                snap = self.dispatcher.metrics_snapshot()
                fmt = query.get("format") or (
                    "json" if "application/json" in accept else "text")
                if fmt == "json":
                    await self._write_json(writer, 200, snap)
                else:
                    await self._write_text(
                        writer, 200, obs.render_prometheus(snap))
                return
            status, payload = self._route(method, path, body)
        except DispatchError as exc:
            status, payload = 400, {"error": str(exc)}
        except UnknownJobError as exc:
            status, payload = 404, {"error": f"unknown job "
                                    f"{exc.args[0]!r}"}
        except Exception as exc:  # noqa: BLE001 — surface as HTTP 500
            status, payload = 500, {"error": repr(exc)}
        await self._write_json(writer, status, payload)

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Dict[str, str], str,
                                       Dict[str, Any]]:
        """Parse one request into (method, path, query, accept, body).

        Raises :class:`_BadRequest` on anything malformed; connection
        errors propagate to the caller.
        """
        request = (await reader.readline()).decode("latin-1").strip()
        if not request:
            raise _BadRequest("empty request")
        try:
            method, target, _ = request.split(None, 2)
        except ValueError:
            raise _BadRequest(f"malformed request line {request!r}") \
                from None
        length = 0
        accept = ""
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            lname = name.strip().lower()
            if lname == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _BadRequest("bad Content-Length") from None
            elif lname == "accept":
                accept = value.strip().lower()
        if length > MAX_BODY:
            raise _BadRequest("request body too large")
        body: Dict[str, Any] = {}
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except ValueError as exc:
                raise _BadRequest(f"bad JSON body: {exc}") from None
            if not isinstance(body, dict):
                raise _BadRequest("JSON body must be an object")
        raw_path, _, raw_query = target.partition("?")
        query: Dict[str, str] = {}
        for part in raw_query.split("&"):
            if part:
                k, _, v = part.partition("=")
                query[k] = v
        path = raw_path.rstrip("/") or "/"
        return method.upper(), path, query, accept, body

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              body: bytes, content_type: str) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed"}.get(status, "Error")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _write_json(self, writer: asyncio.StreamWriter,
                          status: int, payload: Dict[str, object]
                          ) -> None:
        body = json.dumps(payload, sort_keys=True,
                          default=str).encode() + b"\n"
        await self._write_response(writer, status, body,
                                   "application/json")

    async def _write_text(self, writer: asyncio.StreamWriter,
                          status: int, text: str) -> None:
        # The Prometheus text exposition content type.
        await self._write_response(
            writer, status, text.encode(),
            "text/plain; version=0.0.4; charset=utf-8")

    def _wake_streams(self, job_id: str) -> None:
        finished = self._job_done.pop(job_id, None)
        if finished is not None:
            finished.set()

    async def _stream_job(self, writer: asyncio.StreamWriter,
                          job_id: str, query: Dict[str, str]) -> None:
        """``GET /jobs/<id>?stream=1``: hold the response open and emit
        newline-delimited JSON progress snapshots, one per interval,
        until the job finishes (final record carries results and
        ``"final": true``, and is sent when the job finishes rather
        than an interval later).

        ``await drain()`` after every record is the backpressure
        contract — a client that stops reading stalls its own stream
        without buffering unboundedly on the head; a client that
        disconnects ends it silently (the job itself is unaffected).
        """
        try:
            interval = max(0.05, float(query.get("interval",
                                                 STREAM_INTERVAL_S)))
        except ValueError:
            interval = STREAM_INTERVAL_S
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n").encode()
        self._streams.add(writer)
        try:
            writer.write(head)
            await writer.drain()
            while True:
                try:
                    # Results ride only the status of a finished job.
                    status = self.dispatcher.job_status(job_id)
                except UnknownJobError:
                    status = {"error": f"unknown job {job_id!r}",
                              "final": True}
                done = status.get("state") == "done" \
                    or status.get("final")
                if done:
                    status["final"] = True
                else:
                    # Taken in the same loop step as the status, so a
                    # job that finishes during the write is not missed.
                    finished = self._job_done.setdefault(
                        job_id, asyncio.Event())
                writer.write(json.dumps(status, sort_keys=True,
                                        default=str).encode() + b"\n")
                await writer.drain()
                if done or self._stopping:
                    return
                try:
                    await asyncio.wait_for(finished.wait(), interval)
                except asyncio.TimeoutError:
                    pass
        except (ConnectionError, asyncio.CancelledError):
            return
        finally:
            self._streams.discard(writer)
            try:
                writer.close()
            except Exception:  # noqa: BLE001 — already torn down
                pass

    def _route(self, method: str, path: str, body: Dict[str, Any]
               ) -> Tuple[int, Dict[str, object]]:
        d = self.dispatcher
        if path == "/health":
            return 200, {"ok": True, "store": self.store.path,
                         "workers": self.workers}
        if path == "/status" and method == "GET":
            return 200, d.overview()
        if path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/"):]
            if rest.endswith("/trace"):
                return 200, d.job_trace(rest[:-len("/trace")])
            return 200, d.job_status(rest)
        if path == "/submit" and method == "POST":
            spec = body.get("spec", body)
            if not isinstance(spec, dict) or not spec:
                raise DispatchError("submit needs a sweep spec (object "
                                    "body or {\"spec\": {...}})")
            reply = d.submit(spec)
            self._work.set()
            return 200, reply
        if path == "/lookup" and method == "POST":
            return 200, {"rows": d.lookup(spec=body.get("spec"),
                                          key=body.get("key"))}
        if path == "/store" and method == "GET":
            return 200, self.store.stats()
        if path == "/lease" and method == "POST":
            leases = d.lease(runner=str(body.get("runner", "remote")),
                             max_leases=body.get("max", 1),
                             ttl_s=body.get("ttl_s"))
            return 200, {"leases": [lease.to_wire()
                                    for lease in leases]}
        if path == "/complete" and method == "POST":
            if "lease" not in body:
                raise DispatchError("complete needs a lease id")
            return 200, d.complete(str(body["lease"]),
                                   body.get("chunks", ()),
                                   runner=body.get("runner"),
                                   key=body.get("key"),
                                   spans=body.get("spans"),
                                   obs_snapshot=body.get("obs"))
        if path == "/fail" and method == "POST":
            if "lease" not in body:
                raise DispatchError("fail needs a lease id")
            return 200, d.fail(str(body["lease"]),
                               str(body.get("error", "")))
        if path in ("/status", "/submit", "/lookup", "/lease",
                    "/complete", "/fail", "/store", "/health",
                    "/metrics"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no such endpoint {path}"}
