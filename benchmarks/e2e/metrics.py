"""Metric names, units, directions and bounds — and the statistics.

``BENCHMARK.json`` mirrors the two tables here (the smoke test holds
them equal).  ``bound`` is the share of the parent's median by which an
end-to-end metric may worsen before a change counts as a regression;
per-layer metrics explain a change and carry no bound.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: name -> (unit, better, bound).  Measured on every workload.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    # entry call (Campaign.run / submit) to results in hand, store flushed
    "wall_s": ("s", "lower", 0.25),
    # shots completed / wall_s
    "shots_per_s": ("1/s", "higher", 0.25),
    # process start -> entry call: interpreter, import repro, build_sweep,
    # store open, service start
    "setup_s": ("s", "lower", 0.25),
    # max of RUSAGE_SELF and RUSAGE_CHILDREN of the measured process
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: End-to-end for a user of the service, so bounded and compared like the
#: above — but only ``service_sweep`` has them.  ``BENCHMARK.json`` wants
#: every end-to-end metric on every workload, so there they are listed
#: with the per-layer metrics.  Resubmit -> final status, pooled over the
#: run's resubmits.
SERVICE_END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "cached_ms_p50": ("ms", "lower", 0.15),
    "cached_ms_p90": ("ms", "lower", 0.25),
}

#: name -> (unit, better).  README.md says which end-to-end metric each
#: should move, and on which workload.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "codes.build_s": ("s", "lower"),
    "codes.build_calls": ("count", "lower"),
    "transpile.route_s": ("s", "lower"),
    "transpile.calls": ("count", "lower"),
    "transpile.swaps": ("count", "lower"),
    "decoders.graph_build_s": ("s", "lower"),
    "decoders.graph_build_calls": ("count", "lower"),
    "frames.compile_s": ("s", "lower"),
    "frames.compile_calls": ("count", "lower"),
    "frames.program_ops": ("count", "lower"),
    "frames.sample_s": ("s", "lower"),
    "frames.sample_blocks": ("count", "lower"),
    "frames.shots": ("count", "lower"),
    "stabilizer.sample_s": ("s", "lower"),
    "stabilizer.sample_blocks": ("count", "lower"),
    "stabilizer.shots": ("count", "lower"),
    "stabilizer.fallback_points": ("count", "lower"),
    "decoders.decode_s": ("s", "lower"),
    "decoders.decode_calls": ("count", "lower"),
    "decoders.prepare_s": ("s", "lower"),
    "decoders.mwpm_s": ("s", "lower"),
    "decoders.uf_s": ("s", "lower"),
    "decoders.patterns": ("count", "lower"),
    "decoders.distinct_patterns": ("count", "lower"),
    "decoders.cache_hits": ("count", "higher"),
    "decoders.cache_misses": ("count", "lower"),
    "decoders.cache_hit_ratio": ("ratio", "higher"),
    "decoders.matcher_us_p50": ("us", "lower"),
    "decoders.matcher_us_p90": ("us", "lower"),
    "decoders.uf_us_p50": ("us", "lower"),
    "decoders.uf_us_p90": ("us", "lower"),
    "injection.engine_self_s": ("s", "lower"),
    "injection.chunks": ("count", "lower"),
    "injection.decisions": ("count", "lower"),
    "injection.early_stops": ("count", "higher"),
    "injection.store_append_s": ("s", "lower"),
    "injection.store_appends": ("count", "lower"),
    "injection.store_bytes": ("B", "lower"),
    "injection.store_read_s": ("s", "lower"),
    "injection.store_reads": ("count", "lower"),
    "injection.store_reopen_s": ("s", "lower"),
    "parallel.worker_busy_s": ("s", "lower"),
    "parallel.overhead_s": ("s", "lower"),
    "parallel.efficiency": ("ratio", "higher"),
    "parallel.leases": ("count", "lower"),
    "parallel.steals": ("count", "lower"),
    "service.submit_ms": ("ms", "lower"),
    "service.client_requests": ("count", "lower"),
    "service.client_request_s": ("s", "lower"),
    "service.dispatch_s": ("s", "lower"),
    "service.wire_s": ("s", "lower"),
    "service.leases": ("count", "lower"),
    "service.lease_queue_s": ("s", "lower"),
    "service.lease_run_s": ("s", "lower"),
    "service.overhead_s": ("s", "lower"),
    "service.status_bytes": ("B", "lower"),
    "host.calib_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
    "trace.missing_boundaries": ("count", "lower"),
}

#: Every bounded metric, for the report and ``compare``.
BOUNDED = {**END_TO_END, **SERVICE_END_TO_END}

#: Busy self-times of the traced run: these and ``trace.unattributed_s``
#: sum to its wall time.
SELF_TIME_LAYERS = (
    "codes.build_s", "transpile.route_s", "decoders.graph_build_s",
    "frames.compile_s", "frames.sample_s", "stabilizer.sample_s",
    "decoders.decode_s", "decoders.prepare_s", "injection.engine_self_s",
    "injection.store_append_s", "injection.store_read_s",
    "service.dispatch_s", "service.wire_s")

#: The driver's result line carries numbers only.  There a metric whose
#: boundary is missing reads -1 (never 0: a vanished layer is not a free
#: one) and a metric that does not apply to the workload reads 0.
MISSING_SENTINEL = -1.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (a single value is its own quartiles)."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1] of the pooled samples."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def summary(per_unit: List[float], value: Optional[float] = None
            ) -> Dict[str, object]:
    """One metric's report row: the value (median of the per-run values
    unless a pooled one is given), quartiles, min and sample count."""
    q1, median, q3 = quartiles(per_unit)
    return {"value": median if value is None else value,
            "q1": q1, "q3": q3, "min": min(per_unit), "n": len(per_unit),
            "per_unit": list(per_unit)}


def relative_spread(row: Dict[str, object]) -> float:
    """Inter-quartile distance as a share of the value."""
    value = float(row["value"])
    return (float(row["q3"]) - float(row["q1"])) / abs(value) \
        if value else math.inf
