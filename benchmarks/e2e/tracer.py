"""In-memory span tracer over the engine's layer boundaries.

The benchmark measures layers *from outside*: no file under ``src/``
changes.  :class:`Tracer` swaps each boundary callable in
:data:`BOUNDARIES` — a module attribute exactly as the engine imports
it, or a method on a class — for a wrapper that records one span per
call: name, start, end, parent, the campaign point it belongs to and
the thread it ran on.  Spans are kept in memory and written out once
at exit.  A layer's *self time* is its span's duration minus the part
its child spans cover; stacks are per thread because the service runs
slices on a second thread beside the dispatcher's event loop.

A boundary that no longer exists is never fatal and never reads as
zero: it is listed in ``trace.missing_boundaries`` and every layer
metric fed by it is reported as ``None`` (see :meth:`layer_table`).

End-to-end numbers never depend on this file: they come from untraced
runs, and the difference between the two is ``trace.overhead_share``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, "module:attr" or "module:Class.attr").  Span names are
#: ``<layer>.<what>``; the layer is the repro module that owns the work
#: (``stabilizer`` = the batched-tableau fallback entered through
#: ``run_batch_noisy``).
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    ("codes.build", "repro.injection.campaign:build_experiment"),
    ("transpile.route", "repro.injection.campaign:transpile"),
    ("decoders.graph_build", "repro.injection.campaign:decoder_for"),
    ("frames.compile", "repro.injection.campaign:compile_frame_program"),
    ("frames.sample", "repro.frames.simulator:FrameSimulator.run_packed"),
    ("stabilizer.sample", "repro.injection.campaign:run_batch_noisy"),
    ("decoders.decode", "repro.decoders.base:Decoder.decode_batch"),
    ("decoders.prepare", "repro.decoders.base:prepare_packed_inputs"),
    ("injection.engine", "repro.injection.campaign:run_task"),
    ("injection.engine", "repro.parallel.worker:execute_lease"),
    ("injection.store_append",
     "repro.injection.store:CampaignStore.append_chunk"),
    ("injection.store_append",
     "repro.injection.store:CampaignStore.mark_done"),
    ("injection.store_read",
     "repro.injection.store:CampaignStore.result_for"),
    ("injection.store_read", "repro.injection.store:CampaignStore.partial"),
    ("service.dispatch", "repro.service.dispatcher:Dispatcher.submit"),
    ("service.dispatch", "repro.service.dispatcher:Dispatcher.lease"),
    ("service.dispatch", "repro.service.dispatcher:Dispatcher.complete"),
    ("service.dispatch", "repro.service.dispatcher:Dispatcher.job_status"),
    ("service.wire", "repro.service.dispatcher:execute_lease_wire"),
    ("service.client", "repro.service.client:ServiceClient.submit"),
    ("service.client", "repro.service.client:ServiceClient.metrics"),
    ("service.client_wait", "repro.service.client:ServiceClient.wait"),
)

#: Spans that wait for other threads' work rather than doing any: their
#: time is reported but left out of the busy sum, or every second the
#: client spends blocked in ``wait`` would be attributed twice.
WAITING = frozenset({"service.client_wait", "run"})

#: Patterns replayed through each decoder's matcher after the run.
REPLAY_PATTERNS = 512


class Tracer:
    """Wrap the boundaries, collect spans, fold them into layer metrics."""

    def __init__(self) -> None:
        #: One span list per thread, in thread-start order.  A span is
        #: (name, point, parent index in its own list, start, end,
        #: self seconds); ``None`` while still open.
        self._threads: List[Tuple[int, list]] = []
        self._threads_lock = threading.Lock()
        self.missing: List[str] = []
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []
        self._points: Dict[object, int] = {}
        self._counts: Dict[str, float] = {}
        self._tableau_points: set = set()
        self._decoders: Dict[str, object] = {}
        #: (detector words, batch size) of the first point's blocks.
        self._replay_blocks: List[tuple] = []
        self._root = None
        #: Spans are recorded only between begin_run and end_run, so a
        #: run's layer times sum to its wall time and nothing else.
        self._recording = False

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for name, target in BOUNDARIES:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *holders, attr = path.split(".")
                for holder in holders:
                    owner = getattr(owner, holder)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- span recording -------------------------------------------------
    def _state(self) -> Tuple[list, list]:
        """This thread's (open-frame stack, span list)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._threads_lock:
                self._threads.append((threading.get_ident(), state[1]))
        return state

    def _open(self, name: str, point: Optional[int]) -> list:
        stack, spans = self._state()
        parent = stack[-1] if stack else None
        if point is None and parent is not None:
            point = parent[2]
        # frame: [name, span index, point, child seconds, start]
        frame = [name, len(spans), point, 0.0, 0.0]
        spans.append(None)
        stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        stack, spans = self._state()
        stack.pop()
        name, index, point, child_s, start = frame
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += end - start
        spans[index] = (name, point,
                        parent[1] if parent is not None else None,
                        start, end, (end - start) - child_s)

    def _wrap(self, name: str, original: Callable) -> Callable:
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._recording:
                return original(*args, **kwargs)
            point, label = before(args, kwargs) if before is not None \
                else (None, name)
            frame = self._open(label, point)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(args, kwargs, result, frame)
            return result

        return traced

    def begin_run(self) -> None:
        self._recording = True
        self._root = self._open("run", None)

    def end_run(self) -> None:
        self._close(self._root)
        self._recording = False

    # -- per-boundary hooks (counts measured where the work happens) ----
    def _count(self, key: str, amount: float = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def _before_injection_engine(self, args, kwargs):
        """One id per campaign point, keyed by the task spec."""
        task = args[0] if args else kwargs.get("task")
        return (self._points.setdefault(task, len(self._points)),
                "injection.engine")

    def _before_decoders_decode(self, args, kwargs):
        return None, f"decoders.decode/{args[0].name}"

    def _after_transpile_route(self, args, kwargs, routed, frame) -> None:
        self._count("transpile.swaps", routed.swap_count)

    def _after_frames_compile(self, args, kwargs, program, frame) -> None:
        self._count("frames.program_ops", len(program.ops))

    def _after_frames_sample(self, args, kwargs, words, frame) -> None:
        self._count("frames.shots", args[0].batch_size)

    def _after_stabilizer_sample(self, args, kwargs, records, frame) -> None:
        self._count("stabilizer.shots", int(records.shape[0]))
        self._tableau_points.add(frame[2])

    def _after_decoders_graph_build(self, args, kwargs, decoder, frame
                                    ) -> None:
        self._decoders.setdefault(decoder.name, decoder)

    def _after_decoders_prepare(self, args, kwargs, result, frame) -> None:
        if frame[2] == 0:
            batch_size = args[2] if len(args) > 2 else kwargs["batch_size"]
            self._replay_blocks.append((result[0], batch_size))

    # -- aggregation ----------------------------------------------------
    def _fold(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        table: Dict[str, Dict[str, float]] = {}
        for _, spans in self._threads:
            for span in spans:
                if span is None:    # still open (never on a clean run)
                    continue
                name, _, _, start, end, self_s = span
                row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
                row["calls"] += 1
                row["total_s"] += end - start
                row["self_s"] += self_s
        return table

    def layer_table(self, wall_s: float) -> Dict[str, Optional[float]]:
        """Layer metrics of this run; ``None`` marks a metric whose
        boundary is missing (the reasons are in ``missing``)."""
        table = self._fold()
        gone = {name for name, target in BOUNDARIES
                if target in self.missing}

        def of(field: str, *names: str):
            """Sum one field over the named spans (and their ``/kind``
            splits); ``None`` if a boundary feeding them is missing."""
            if any(name.split("/")[0] in gone for name in names):
                return None
            return sum(row[field] for key, row in table.items()
                       if any(key == name or key.startswith(name + "/")
                              for name in names))

        def count(key: str, boundary: str):
            return None if boundary in gone else self._counts.get(key, 0)

        out: Dict[str, Optional[float]] = {
            "codes.build_s": of("self_s", "codes.build"),
            "codes.build_calls": of("calls", "codes.build"),
            "transpile.route_s": of("self_s", "transpile.route"),
            "transpile.calls": of("calls", "transpile.route"),
            "transpile.swaps": count("transpile.swaps", "transpile.route"),
            "decoders.graph_build_s": of("self_s", "decoders.graph_build"),
            "decoders.graph_build_calls": of("calls",
                                             "decoders.graph_build"),
            "frames.compile_s": of("self_s", "frames.compile"),
            "frames.compile_calls": of("calls", "frames.compile"),
            "frames.program_ops": count("frames.program_ops",
                                        "frames.compile"),
            "frames.sample_s": of("self_s", "frames.sample"),
            "frames.sample_blocks": of("calls", "frames.sample"),
            "frames.shots": count("frames.shots", "frames.sample"),
            "stabilizer.sample_s": of("self_s", "stabilizer.sample"),
            "stabilizer.sample_blocks": of("calls", "stabilizer.sample"),
            "stabilizer.shots": count("stabilizer.shots",
                                      "stabilizer.sample"),
            "stabilizer.fallback_points": (
                None if "stabilizer.sample" in gone
                else len(self._tableau_points)),
            "decoders.decode_s": of("self_s", "decoders.decode"),
            "decoders.decode_calls": of("calls", "decoders.decode"),
            "decoders.prepare_s": of("self_s", "decoders.prepare"),
            "decoders.mwpm_s": of("self_s", "decoders.decode/mwpm"),
            "decoders.uf_s": of("self_s", "decoders.decode/union-find"),
            "injection.engine_self_s": of("self_s", "injection.engine"),
            "injection.store_append_s": of("self_s",
                                           "injection.store_append"),
            "injection.store_appends": of("calls",
                                          "injection.store_append"),
            "injection.store_read_s": of("self_s", "injection.store_read"),
            "injection.store_reads": of("calls", "injection.store_read"),
            "service.dispatch_s": of("self_s", "service.dispatch"),
            "service.wire_s": of("self_s", "service.wire"),
            "service.client_requests": of(
                "calls", "service.client", "service.client_wait"),
            "service.client_request_s": of(
                "total_s", "service.client", "service.client_wait"),
        }
        busy = sum(row["self_s"] for name, row in table.items()
                   if name not in WAITING)
        out["trace.unattributed_s"] = wall_s - busy
        out["trace.unattributed_share"] = (wall_s - busy) / wall_s
        out["trace.missing_boundaries"] = len(self.missing)
        return out

    # -- matcher replay -------------------------------------------------
    def matcher_replay(self) -> Dict[str, Dict[str, float]]:
        """Per-pattern matcher latency, outside the decode cache.

        Replays the first :data:`REPLAY_PATTERNS` distinct detector
        patterns of the first point through ``decode_detectors`` on a
        ``cache_decodes=False`` copy of every decoder the run built;
        returns ``{decoder name: {n, p50, p90}}`` in microseconds.
        """
        import numpy as np
        from repro.decoders import pack_pattern_columns

        keys, num_detectors = [], 0
        for det_words, batch_size in self._replay_blocks:
            num_detectors = det_words.shape[0] * det_words.shape[1]
            planes = np.ascontiguousarray(
                det_words.reshape(num_detectors, det_words.shape[2]))
            keys.append(pack_pattern_columns(planes, np.arange(batch_size)))
        if not keys or not num_detectors:
            return {}
        keys = np.concatenate(keys)
        _, first = np.unique(keys, axis=0, return_index=True)
        patterns = [np.unpackbits(keys[i], count=num_detectors,
                                  bitorder="little")
                    for i in sorted(first)[:REPLAY_PATTERNS]]
        out: Dict[str, Dict[str, float]] = {}
        for name, decoder in self._decoders.items():
            cold = dataclasses.replace(decoder, cache_decodes=False)
            times = []
            for bits in patterns:
                t0 = perf_counter()
                cold.decode_detectors(bits)
                times.append((perf_counter() - t0) * 1e6)
            times.sort()
            out[name] = {"n": len(times),
                         "p50": times[len(times) // 2],
                         "p90": times[(len(times) * 9) // 10]}
        return out

    # -- output ---------------------------------------------------------
    def write(self, path: str) -> None:
        """One JSON span per line: name, thread, point, parent, times.
        ``parent`` indexes the same thread's spans in file order."""
        with open(path, "w", encoding="utf-8") as fh:
            for thread, spans in self._threads:
                for index, span in enumerate(spans):
                    if span is None:
                        continue
                    name, point, parent, start, end, self_s = span
                    fh.write(json.dumps({
                        "thread": thread, "index": index, "name": name,
                        "point": point, "parent": parent, "start": start,
                        "end": end, "self_s": self_s}) + "\n")
