"""Distributed trace-context propagation for the campaign service.

A *trace* is the causal story of one submitted job: ``job → point →
lease → chunk``, with the engine's phase spans (``compile`` / ``sample``
/ ``decode`` / ``merge`` / ...) attached under the lease that ran them —
even when that lease executed in a forked pool child or on a remote
pull runner three HTTP hops away.

Two properties make the layer safe to leave on:

* **Deterministic ids.**  Span ids are SHA-1 digests of the causal
  path (``trace_id / name / coordinates``), never random draws — the
  tracer is RNG-neutral by construction, a requeued lease re-run on a
  different runner produces the *same* span id (so merging span
  summaries is idempotent, exactly like the engine's chunk dedup), and
  a job dispatched through the local pool yields the same span tree as
  the same job dispatched through remote runners.
* **Boundary-only cost.**  Nothing is recorded per shot or per block:
  a lease execution snapshots the registry's phase-span totals before
  and after (two small dict copies) and emits the deltas as child
  spans.  The <2% hot-path overhead bar is enforced by
  ``benchmarks/bench_service.py``.

Wire format: a lease carries ``{"id", "span", "parent"}`` (the trace
id, the lease's own pre-derived span id, and the parent point span);
completed spans ride the ``/complete`` payload as flat dicts and merge
into the dispatch head's per-trace table keyed by span id.
"""

from __future__ import annotations

import time as _time
from collections.abc import Mapping
from contextlib import contextmanager
from hashlib import sha1
from time import perf_counter
from typing import Dict, Iterator, List, NamedTuple, Optional, Set

from .metrics import registry

#: Spans kept per process buffer, and in total on the dispatch head.
#: A campaign point is a handful of spans; a whole sweep stays far
#: below this — the cap only guards against unbounded service uptime.
MAX_SPANS = 4096

#: Process-global tracing switch (``set_enabled``); the dispatcher
#: consults it at submit time, so a disabled head hands out traceless
#: leases and runners pay nothing at all.
_ENABLED = True


def set_enabled(on: bool) -> bool:
    """Flip tracing on/off process-wide; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(on)
    return previous


def is_enabled() -> bool:
    return _ENABLED


def derive_id(*parts: object) -> str:
    """A 16-hex deterministic span/trace id from the causal path."""
    return sha1("/".join(map(str, parts)).encode()).hexdigest()[:16]


class TraceContext(NamedTuple):
    """The propagated context: which trace, and which span is parent.
    (A tuple: several are made per lease, on the head and the runner.)"""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child(self, name: str, *coords: object) -> "TraceContext":
        """Derive the deterministic child context for ``name`` at
        ``coords`` (e.g. ``("lease", start)``)."""
        return TraceContext(self.trace_id,
                            derive_id(self.span_id, name, *coords),
                            parent_id=self.span_id)

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {"id": self.trace_id,
                                   "span": self.span_id}
        if self.parent_id is not None:
            wire["parent"] = self.parent_id
        return wire


def from_wire(wire: Optional[Mapping[str, object]]
              ) -> Optional[TraceContext]:
    """Rehydrate a wire trace field; ``None``/malformed → no tracing."""
    if not isinstance(wire, Mapping):
        return None
    trace_id = wire.get("id")
    span_id = wire.get("span")
    if not trace_id or not span_id:
        return None
    parent = wire.get("parent")
    return TraceContext(str(trace_id), str(span_id),
                        None if parent is None else str(parent))


def make_span(ctx: TraceContext, name: str, dur_s: float,
              parent_id: Optional[str] = None,
              t0: Optional[float] = None,
              **meta: object) -> Dict[str, object]:
    """One completed-span record (the JSONL/wire form)."""
    span: Dict[str, object] = {
        "trace": ctx.trace_id,
        "span": ctx.span_id,
        "parent": ctx.parent_id if parent_id is None else parent_id,
        "name": name,
        "dur_s": round(float(dur_s), 6),
        "t0": round(_time.time() if t0 is None else t0, 3),
    }
    if meta:
        span["meta"] = meta
    return span


class TraceBuffer:
    """Process-local holding pen for completed spans.

    Spans recorded during a lease execution are drained into the
    completion payload — in the service process, a forked pool child,
    or a remote runner alike — and travel to the dispatch head over
    the existing ``/complete`` wire.
    """

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self._spans: List[Dict[str, object]] = []
        self.dropped = 0

    def record(self, span: Dict[str, object]) -> None:
        if len(self._spans) >= self.max_spans:
            self.dropped += 1
            return
        self._spans.append(span)

    def drain(self) -> List[Dict[str, object]]:
        spans, self._spans = self._spans, []
        return spans

    def __len__(self) -> int:
        return len(self._spans)


#: The process-global buffer lease executions record into.
_BUFFER = TraceBuffer()


def buffer() -> TraceBuffer:
    return _BUFFER


def record(span: Dict[str, object]) -> None:
    _BUFFER.record(span)


def drain() -> List[Dict[str, object]]:
    """Drain the process buffer (the completion-payload hook)."""
    return _BUFFER.drain()


def reset() -> None:
    """Drop any buffered spans (worker-process entry, tests)."""
    _BUFFER.drain()
    _BUFFER.dropped = 0


@contextmanager
def span(ctx: Optional[TraceContext], name: str, *coords: object,
         here: bool = False, phases: bool = False, **meta: object
         ) -> Iterator[Optional[TraceContext]]:
    """Record one span into the process buffer.

    By default the span is a fresh child of ``ctx`` derived from
    ``(name, *coords)``; with ``here=True`` it is recorded *at* ``ctx``
    itself — the dispatch head pre-derives lease span ids and ships
    them on the wire, so the executing side must not re-derive.

    With ``phases=True`` the registry's phase-span totals are
    snapshotted around the body and every phase that advanced
    (``compile``/``sample``/``decode``/...) is recorded as a child of
    the new span — that is how engine phases from a remote process
    land in the head's causally-linked trace without the hot path ever
    knowing about tracing.

    Yields the span's context (``None`` when tracing is off or there
    is no incoming context — callers chain without checking).
    """
    if ctx is None or not _ENABLED:
        yield None
        return
    child = ctx if here else ctx.child(name, *coords)
    before = registry().span_totals() if phases else {}
    t0 = _time.time()
    p0 = perf_counter()
    try:
        yield child
    finally:
        dur = perf_counter() - p0
        if phases:
            after = registry().span_totals()
            for phase, (total_s, count) in sorted(after.items()):
                prev_s, prev_n = before.get(phase, (0.0, 0))
                if count > prev_n or total_s > prev_s:
                    record(make_span(
                        child.child(phase), phase, total_s - prev_s,
                        count=count - prev_n))
        record(make_span(child, name, dur, t0=t0, **meta))


class TraceStore:
    """The dispatch head's span table: ``trace_id → span_id → span``.

    Absorption is idempotent by span id — a requeued lease re-run on
    another runner derives the same ids, so late or duplicate
    completions collapse exactly like duplicate chunks do.

    At most ``max_spans`` spans are held in all.  A span arriving at
    the cap evicts the oldest finished trace (see :meth:`finish`)
    whole, and later spans of an evicted trace are dropped; with no
    finished trace to evict, the arriving span is dropped.
    """

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        #: Trace tables in creation order.
        self._traces: Dict[str, Dict[str, Dict[str, object]]] = {}
        self._finished: Set[str] = set()
        self._evicted: Set[str] = set()
        self._held = 0

    def absorb(self, spans) -> int:
        """Bank wire-form spans; returns how many were new."""
        fresh = 0
        for wire in spans or ():
            if not isinstance(wire, Mapping):
                continue
            trace_id = wire.get("trace")
            span_id = wire.get("span")
            if not trace_id or not span_id:
                continue
            trace_id, span_id = str(trace_id), str(span_id)
            if trace_id in self._evicted:
                continue
            table = self._traces.setdefault(trace_id, {})
            if span_id in table or (self._held >= self.max_spans
                                    and not self._evict(trace_id)):
                continue
            table[span_id] = dict(wire)
            self._held += 1
            fresh += 1
        return fresh

    def finish(self, trace_id: str) -> None:
        """Mark a trace complete, so the cap may evict it."""
        if trace_id in self._traces:
            self._finished.add(trace_id)

    def evicted(self, trace_id: str) -> bool:
        return trace_id in self._evicted

    def _evict(self, keep: str) -> bool:
        """Drop the oldest finished trace other than ``keep``; False if
        there is none."""
        for trace_id in self._traces:
            if trace_id in self._finished and trace_id != keep:
                self._held -= len(self._traces.pop(trace_id))
                self._finished.discard(trace_id)
                self._evicted.add(trace_id)
                return True
        return False

    def spans(self, trace_id: str) -> List[Dict[str, object]]:
        """A trace's spans, parents before children, then by time."""
        table = self._traces.get(trace_id, {})

        def depth(span: Dict[str, object]) -> int:
            seen = 0
            parent = span.get("parent")
            while parent is not None and seen < 16:
                row = table.get(parent)
                if row is None:
                    break
                parent = row.get("parent")
                seen += 1
            return seen

        return sorted(table.values(),
                      key=lambda s: (depth(s), s.get("t0", 0.0),
                                     str(s.get("span"))))

    def __contains__(self, trace_id: str) -> bool:
        return trace_id in self._traces

    def __len__(self) -> int:
        return len(self._traces)
