"""Campaign observability: metrics, phase spans, progress, telemetry.

The layer has three pieces, all near-zero-overhead and RNG-neutral
(instrumentation never draws from or reorders any random stream — the
engine's bit-identity contract is property-tested with telemetry on):

* :mod:`repro.obs.metrics` — the process-local
  :class:`MetricsRegistry` of counters / gauges / histograms plus
  nestable phase spans (``compile``, ``sample``, ``detect``,
  ``decode``, ``merge``, ``aggregate``) and per-kind event counts.
  Hot paths use the module-level conveniences (:func:`counter`,
  :func:`span`, ...) against the global registry; :func:`reset` zeroes
  it in place (worker processes call this at start).
* :mod:`repro.obs.sinks` — the ambient :class:`CampaignMonitor`
  session combining a live TTY progress line and a periodic
  schema-versioned JSONL telemetry exporter (``--telemetry PATH``).
  The engine reaches it through :func:`active` (one ``None`` check
  when no session is installed).
* :mod:`repro.obs.report` — ``repro report FILE...``: render a phase /
  cache / scheduler / sampler summary from one or several exported
  telemetry files (several → a merged offline-fleet view).
* :mod:`repro.obs.trace` — distributed trace contexts for the campaign
  service: deterministic span ids propagated over the lease wire so
  remote phase spans land in one causally-linked trace per job.
* :mod:`repro.obs.prof` — the opt-in deterministic profiler
  (``repro perf record``): per-op-kind kernel buckets, decode-stage
  attribution, span-path self-times and flamegraph export.

Performance regressions are judged outside the package: CI runs the
end-to-end benchmark (``benchmarks/e2e``) on the parent and the change
on one host and ``benchmarks/e2e/compare.py`` gives the verdicts.
"""

from . import prof, trace
from .metrics import (
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    event,
    gauge,
    merge_snapshots,
    registry,
    render_prometheus,
    span,
)
from .sinks import (
    CampaignMonitor,
    ProgressRenderer,
    TelemetryWriter,
    active,
    install,
    job_progress_line,
    session,
)
from .report import last_snapshot, load_telemetry, render_report


def reset() -> None:
    """Zero the global registry in place, drop any buffered trace
    spans, disable any profiler, and drop any ambient monitor
    (worker-process entry: metrics become worker-local, a profiler
    inherited across ``fork`` must not double-attribute in children,
    and a forked monitor must never export)."""
    registry().reset()
    trace.reset()
    prof.disable()
    install(None)


__all__ = [
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "span",
    "event",
    "registry",
    "reset",
    "merge_snapshots",
    "render_prometheus",
    "prof",
    "trace",
    "CampaignMonitor",
    "ProgressRenderer",
    "TelemetryWriter",
    "active",
    "install",
    "job_progress_line",
    "session",
    "load_telemetry",
    "last_snapshot",
    "render_report",
]
