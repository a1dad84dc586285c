"""Process-local metrics registry: counters, gauges, spans, events.

The registry is the engine's always-on instrumentation substrate.  Two
properties make it safe to leave enabled in the hot path:

* **Never touches randomness** — metrics read counts and clocks only;
  no RNG stream is ever consumed or reseeded, so counts and adaptive
  stop shots are bit-identical with instrumentation on or off (the
  bit-identity property tests run with a monitor installed).
* **Near-zero overhead** — incrementing a counter is one attribute add
  on a cached object; a span is two ``perf_counter`` calls.  Hot-path
  call sites cache their :class:`Counter` objects at module scope,
  which works because :meth:`MetricsRegistry.reset` zeroes the
  existing objects *in place* instead of replacing them — cached
  references stay live across resets and across ``fork``.

Values are process-local.  Parallel workers carry their own registry
(zeroed at worker start) and ship cumulative snapshots back to the
scheduler over their pipes; :func:`merge_snapshots` sums
them into the campaign-wide view.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

#: Telemetry snapshot schema version (the ``"schema"`` field of every
#: exported JSONL record).  Bump when the snapshot shape changes.
#: v2: span rows gained ``child_s`` (time spent inside nested spans,
#: the input to the self-time column) and snapshots may carry an
#: optional ``profile`` section from :mod:`repro.obs.prof`.
SCHEMA_VERSION = 2

#: Recent events kept verbatim (per kind, total) for the snapshot's
#: ``recent_events`` field; per-kind totals are unbounded counters.
EVENT_BUFFER = 64


class Counter:
    """A monotonically increasing integer (per process)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-write-wins sampled value (``None`` until first set)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class SpanStats:
    """Accumulated wall-clock for one named phase.

    ``total_s`` is inclusive of nested spans; ``child_s`` is the part
    of ``total_s`` spent inside directly nested spans, so
    ``total_s - child_s`` is the phase's *self* time.
    """

    __slots__ = ("total_s", "count", "child_s")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0
        self.child_s = 0.0


class Histogram:
    """Fixed-bucket histogram (cumulative counts are derivable).

    Kept deliberately simple: ``bounds`` are the inclusive upper edges
    of all but the last bucket, which is open-ended.  The engine uses
    histograms sparingly (they cost a bisection per observation);
    counters and spans carry the hot-path load.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        i = 0
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                break
        else:
            i = len(self.bounds)
        self.counts[i] += 1
        self.total += 1
        self.sum += value

    def to_row(self) -> Dict[str, object]:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "total": self.total, "sum": self.sum}


class MetricsRegistry:
    """One process's metric namespace.

    Not thread-safe by design — the engine is single-threaded per
    process, and a lock per counter increment would dominate the cost
    of the increment itself.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._spans: Dict[str, SpanStats] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._stack: List[str] = []
        self._event_counts: Dict[str, int] = {}
        self._events: Deque[Dict[str, object]] = deque(maxlen=EVENT_BUFFER)
        self._span_hook = None
        self._start = perf_counter()

    # -- metric handles ------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str, bounds: Tuple[float, ...]) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(bounds)
        return h

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a named phase; spans nest (each level accumulates its
        own wall-clock, inclusive of children) and unwind correctly on
        exceptions."""
        self._stack.append(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            st = self._spans.get(name)
            if st is None:
                st = self._spans[name] = SpanStats()
            st.total_s += dt
            st.count += 1
            if self._stack:
                parent = self._spans.get(self._stack[-1])
                if parent is None:
                    parent = self._spans[self._stack[-1]] = SpanStats()
                parent.child_s += dt
            if self._span_hook is not None:
                self._span_hook(tuple(self._stack) + (name,), dt)

    def set_span_hook(self, hook) -> None:
        """Install ``hook(path, dt)``, called at every span exit with
        the full span path (outermost first) and the span's duration —
        the profiler's tap.  ``None`` removes it.  Span timings are
        unaffected either way (the hook runs outside the timed
        window)."""
        self._span_hook = hook

    def span_stack(self) -> Tuple[str, ...]:
        """The currently open spans, outermost first."""
        return tuple(self._stack)

    def span_stats(self, name: str) -> Optional[SpanStats]:
        return self._spans.get(name)

    def span_totals(self) -> Dict[str, Tuple[float, int]]:
        """``{name: (total_s, count)}`` for every phase span — the
        cheap before/after delta hook the tracer uses to attribute
        engine phase time to a lease without touching the hot path."""
        return {k: (s.total_s, s.count) for k, s in self._spans.items()}

    # -- events --------------------------------------------------------
    def event(self, kind: str, message: str = "", **fields: object) -> None:
        """Record one structured event (warn+skip paths, crashes, ...).

        Per-kind totals always accumulate; the most recent
        :data:`EVENT_BUFFER` events are kept verbatim for the snapshot.
        """
        self._event_counts[kind] = self._event_counts.get(kind, 0) + 1
        ev: Dict[str, object] = {
            "kind": kind,
            "uptime_s": round(perf_counter() - self._start, 3)}
        if message:
            ev["message"] = message
        if fields:
            ev.update(fields)
        self._events.append(ev)

    @property
    def event_counts(self) -> Dict[str, int]:
        return dict(self._event_counts)

    @property
    def recent_events(self) -> List[Dict[str, object]]:
        return list(self._events)

    # -- lifecycle -----------------------------------------------------
    @property
    def uptime_s(self) -> float:
        return perf_counter() - self._start

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable cumulative view of every metric."""
        snap: Dict[str, object] = {
            "uptime_s": round(self.uptime_s, 6),
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()
                       if g.value is not None},
            "spans": {k: {"total_s": round(s.total_s, 6), "count": s.count,
                          "child_s": round(s.child_s, 6)}
                      for k, s in self._spans.items()},
            "events": dict(self._event_counts),
        }
        if self._histograms:
            snap["histograms"] = {k: h.to_row()
                                  for k, h in self._histograms.items()}
        return snap

    def reset(self) -> None:
        """Zero every metric **in place** — existing Counter/Gauge/
        SpanStats objects keep their identity, so module-level cached
        handles (and handles inherited across ``fork``) remain valid."""
        for c in self._counters.values():
            c.value = 0
        for g in self._gauges.values():
            g.value = None
        for s in self._spans.values():
            s.total_s = 0.0
            s.count = 0
            s.child_s = 0.0
        for h in self._histograms.values():
            h.counts = [0] * (len(h.bounds) + 1)
            h.total = 0
            h.sum = 0.0
        self._stack.clear()
        self._event_counts.clear()
        self._events.clear()
        self._start = perf_counter()


def merge_snapshots(base: Dict[str, object],
                    others: Iterable[Dict[str, object]]
                    ) -> Dict[str, object]:
    """Sum worker snapshots into a campaign-wide view.

    Counters, span totals/counts/child times, event totals, histogram
    buckets and profile sections add (histograms with mismatched
    bounds keep the base's buckets and fold the other's total/sum only
    — bounds are fixed per metric name in practice; span rows from
    schema-1 snapshots may lack ``child_s`` and merge as zero); gauges
    are last-write-wins with ``base`` taking precedence (worker gauges
    fill gaps only — per-worker gauge detail belongs in the per-worker
    section of the telemetry record, not the merged namespace).
    """
    counters = dict(base.get("counters", {}))
    gauges = dict(base.get("gauges", {}))
    spans: Dict[str, Dict[str, float]] = {
        k: dict(v) for k, v in base.get("spans", {}).items()}
    events = dict(base.get("events", {}))
    histograms: Dict[str, Dict[str, object]] = {
        k: {"bounds": list(v["bounds"]), "counts": list(v["counts"]),
            "total": v["total"], "sum": v["sum"]}
        for k, v in base.get("histograms", {}).items()}
    for snap in others:
        if not snap:
            continue
        for k, v in snap.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, v in snap.get("gauges", {}).items():
            gauges.setdefault(k, v)
        for k, v in snap.get("spans", {}).items():
            st = spans.setdefault(k, {"total_s": 0.0, "count": 0})
            st["total_s"] = round(st["total_s"] + v["total_s"], 6)
            st["count"] += v["count"]
            if "child_s" in st or "child_s" in v:
                st["child_s"] = round(st.get("child_s", 0.0)
                                      + v.get("child_s", 0.0), 6)
        for k, v in snap.get("events", {}).items():
            events[k] = events.get(k, 0) + v
        for k, v in snap.get("histograms", {}).items():
            h = histograms.get(k)
            if h is None:
                histograms[k] = {"bounds": list(v["bounds"]),
                                 "counts": list(v["counts"]),
                                 "total": v["total"], "sum": v["sum"]}
                continue
            if list(h["bounds"]) == list(v["bounds"]):
                h["counts"] = [a + b for a, b in zip(h["counts"],
                                                     v["counts"])]
            h["total"] += v["total"]
            h["sum"] = round(h["sum"] + v["sum"], 9)
    profiles = [p for p in
                [base.get("profile")] + [s.get("profile") for s in others
                                         if s]
                if p]
    merged = dict(base)
    merged["counters"] = counters
    merged["gauges"] = gauges
    merged["spans"] = spans
    merged["events"] = events
    if histograms:
        merged["histograms"] = histograms
    if profiles:
        merged["profile"] = merge_profiles(profiles)
    return merged


def merge_profiles(profiles: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum :mod:`repro.obs.prof` snapshot sections (kernel buckets,
    decode stages, span paths) across processes.  Self-times add, like
    every other duration here."""
    kernels: Dict[str, Dict[str, object]] = {}
    stages: Dict[str, Dict[str, object]] = {}
    paths: Dict[str, Dict[str, object]] = {}
    sampling: Dict[str, int] = {}
    for prof in profiles:
        samp = prof.get("sampling")
        if isinstance(samp, dict):
            sampling.setdefault("every", samp.get("every", 0))
            sampling["blocks"] = sampling.get("blocks", 0) \
                + samp.get("blocks", 0)
            sampling["sampled"] = sampling.get("sampled", 0) \
                + samp.get("sampled", 0)
        for k, v in prof.get("kernels", {}).items():
            row = kernels.setdefault(
                k, {"total_s": 0.0, "calls": 0, "ops": 0})
            row["total_s"] = round(row["total_s"] + v["total_s"], 6)
            row["calls"] += v["calls"]
            row["ops"] += v["ops"]
        for k, v in prof.get("stages", {}).items():
            row = stages.setdefault(k, {"total_s": 0.0, "calls": 0})
            row["total_s"] = round(row["total_s"] + v["total_s"], 6)
            row["calls"] += v["calls"]
        for k, v in prof.get("paths", {}).items():
            row = paths.setdefault(
                k, {"total_s": 0.0, "count": 0, "self_s": 0.0})
            row["total_s"] = round(row["total_s"] + v["total_s"], 6)
            row["count"] += v["count"]
            row["self_s"] = round(row["self_s"] + v.get("self_s", 0.0), 6)
    merged: Dict[str, object] = {"kernels": kernels, "stages": stages,
                                 "paths": paths}
    if sampling:
        merged["sampling"] = sampling
    return merged


def _prom_name(name: str) -> str:
    """Sanitize a dotted registry name into a Prometheus metric name."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    base = "".join(out)
    if not base.startswith("repro_"):
        base = "repro_" + base
    return base


def _prom_labels(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"") \
                .replace("\n", r"\n")


def _split_labels(name: str) -> Tuple[str, Dict[str, str]]:
    """Split the ``base/k=v/k2=v2`` label-encoding convention used by
    per-runner metrics (the registry itself is label-free; labels are
    folded into the name so plain dict merging keeps working)."""
    parts = name.split("/")
    labels: Dict[str, str] = {}
    base = [parts[0]]
    for part in parts[1:]:
        if "=" in part:
            k, v = part.split("=", 1)
            labels[k] = v
        else:
            base.append(part)
    return "/".join(base), labels


def _prom_sample(base: str, labels: Dict[str, str], value: object) -> str:
    if labels:
        inner = ",".join(f'{_prom_name(k)[len("repro_"):]}='
                         f'"{_prom_labels(str(v))}"'
                         for k, v in sorted(labels.items()))
        return f"{base}{{{inner}}} {value}"
    return f"{base} {value}"


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a (possibly merged) snapshot in the Prometheus text
    exposition format (version 0.0.4).

    Dotted names become underscored with a ``repro_`` prefix; counters
    gain ``_total``; the ``base/k=v`` label convention becomes real
    labels; phase spans render as paired ``_seconds_total`` /
    ``_runs_total`` counters; histograms render cumulative ``_bucket``
    series with ``le`` labels plus ``_sum``/``_count``.
    """
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str,
               samples: List[str]) -> None:
        if not samples:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    family("repro_uptime_seconds", "gauge",
           "Seconds since the registry started.",
           [f"repro_uptime_seconds {snapshot.get('uptime_s', 0.0)}"])

    groups: Dict[str, List[str]] = {}
    for name, value in sorted(snapshot.get("counters", {}).items()):
        base, labels = _split_labels(name)
        prom = _prom_name(base) + "_total"
        groups.setdefault(prom, []).append(_prom_sample(prom, labels, value))
    for prom, samples in groups.items():
        family(prom, "counter", f"Registry counter {prom}.", samples)

    groups = {}
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        base, labels = _split_labels(name)
        prom = _prom_name(base)
        groups.setdefault(prom, []).append(_prom_sample(prom, labels, value))
    for prom, samples in groups.items():
        family(prom, "gauge", f"Registry gauge {prom}.", samples)

    span_seconds: List[str] = []
    span_runs: List[str] = []
    for name, st in sorted(snapshot.get("spans", {}).items()):
        labels = {"phase": name}
        span_seconds.append(_prom_sample("repro_phase_seconds_total",
                                         labels, st["total_s"]))
        span_runs.append(_prom_sample("repro_phase_runs_total",
                                      labels, st["count"]))
    family("repro_phase_seconds_total", "counter",
           "Cumulative wall-clock per instrumented phase.", span_seconds)
    family("repro_phase_runs_total", "counter",
           "Completions per instrumented phase.", span_runs)

    event_samples = [
        _prom_sample("repro_events_total", {"kind": kind}, count)
        for kind, count in sorted(snapshot.get("events", {}).items())]
    family("repro_events_total", "counter",
           "Structured obs events by kind.", event_samples)

    hist_groups: Dict[str, List[str]] = {}
    for name, row in sorted(snapshot.get("histograms", {}).items()):
        base, labels = _split_labels(name)
        prom = _prom_name(base)
        samples = hist_groups.setdefault(prom, [])
        cum = 0
        for bound, count in zip(row["bounds"], row["counts"]):
            cum += count
            samples.append(_prom_sample(
                prom + "_bucket", {**labels, "le": repr(float(bound))}, cum))
        samples.append(_prom_sample(
            prom + "_bucket", {**labels, "le": "+Inf"}, row["total"]))
        samples.append(_prom_sample(prom + "_sum", labels, row["sum"]))
        samples.append(_prom_sample(prom + "_count", labels, row["total"]))
    for prom, samples in hist_groups.items():
        family(prom, "histogram", f"Registry histogram {prom}.", samples)

    profile = snapshot.get("profile") or {}
    family("repro_kernel_seconds_total", "counter",
           "Profiler wall-clock per frames-executor op kind.",
           [_prom_sample("repro_kernel_seconds_total", {"kind": k},
                         v["total_s"])
            for k, v in sorted(profile.get("kernels", {}).items())])
    family("repro_kernel_ops_total", "counter",
           "Profiler scalar-equivalent ops per frames-executor op kind.",
           [_prom_sample("repro_kernel_ops_total", {"kind": k}, v["ops"])
            for k, v in sorted(profile.get("kernels", {}).items())])
    family("repro_profile_stage_seconds_total", "counter",
           "Profiler wall-clock per attributed sub-phase stage.",
           [_prom_sample("repro_profile_stage_seconds_total",
                         {"stage": k}, v["total_s"])
            for k, v in sorted(profile.get("stages", {}).items())])

    return "\n".join(lines) + "\n"


#: The process-global registry every engine call site instruments.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def span(name: str):
    return _REGISTRY.span(name)


def event(kind: str, message: str = "", **fields: object) -> None:
    _REGISTRY.event(kind, message, **fields)
