"""Telemetry sinks: JSONL snapshot export and live TTY progress.

A :class:`CampaignMonitor` is the *ambient* observability session: the
CLI (or any caller) installs one for the duration of a run, and the
engine's chunk-boundary hooks feed it through :func:`active` — a single
``None`` check when no monitor is installed, so the hot path pays
nothing by default.

Both sinks work from the same source of truth: the process-global
:class:`~repro.obs.metrics.MetricsRegistry` plus per-worker registry
snapshots that ride each parallel worker's pipe to the scheduler
(cumulative per worker, merged by replacement, so crashes and requeues
can never double-count).  Monitor state is guarded by the owning PID:
forked pool children inherit the object but every method no-ops there,
keeping the ambient session strictly parent-side.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, IO, Iterator, List, Optional

from . import prof
from .metrics import SCHEMA_VERSION, merge_snapshots, registry

#: Seconds between periodic JSONL snapshot records.
EXPORT_INTERVAL_S = 2.0
#: Seconds between live progress-line redraws.
RENDER_INTERVAL_S = 0.25
#: Per-task rows embedded in one snapshot record (most recently
#: updated first); campaigns wider than this truncate with a flag
#: rather than ballooning every record.
MAX_TASK_ROWS = 64


class TelemetryWriter:
    """Append-only JSONL sink for schema-versioned telemetry records."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fh: Optional[IO[str]] = None
        self.seq = 0

    def write(self, record: Dict[str, object]) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        record = {"schema": SCHEMA_VERSION, "seq": self.seq,
                  "time": round(time.time(), 3), **record}
        self._fh.write(json.dumps(record, sort_keys=True, default=str)
                       + "\n")
        self._fh.flush()
        self.seq += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ProgressRenderer:
    """Single-line ``\\r`` progress display on a TTY stream."""

    def __init__(self, stream=None) -> None:
        self.stream = sys.stderr if stream is None else stream
        self._dirty = False

    @staticmethod
    def wants_tty(stream=None) -> bool:
        stream = sys.stderr if stream is None else stream
        try:
            return bool(stream.isatty())
        except Exception:
            return False

    def _width(self) -> int:
        try:
            return os.get_terminal_size(self.stream.fileno()).columns
        except (OSError, ValueError, AttributeError):
            return 100

    def render(self, line: str) -> None:
        width = max(20, self._width() - 1)
        if len(line) > width:
            line = line[:width - 1] + "…"
        self.stream.write("\r\x1b[2K" + line)
        self.stream.flush()
        self._dirty = True

    def clear(self) -> None:
        if self._dirty:
            self.stream.write("\r\x1b[2K")
            self.stream.flush()
            self._dirty = False


class _TaskState:
    """Progress of one campaign point, as last reported."""

    __slots__ = ("label", "shots", "target", "errors", "ci_rel", "ess",
                 "done", "updated")

    def __init__(self, label: str, target: int) -> None:
        self.label = label
        self.shots = 0
        self.target = target
        self.errors = 0
        self.ci_rel: Optional[float] = None
        self.ess: Optional[float] = None
        self.done = False
        self.updated = 0

    def to_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "label": self.label, "shots": self.shots,
            "target": self.target, "errors": self.errors,
            "done": self.done}
        if self.shots:
            row["ler"] = self.errors / self.shots
        if self.ci_rel is not None:
            row["ci_rel"] = round(self.ci_rel, 6)
        if self.ess is not None:
            row["ess"] = round(self.ess, 1)
        return row


def _ci_rel(errors: int, shots: int, weight_stats=None) -> Optional[float]:
    """Relative Wilson half-width (the adaptive policy's own measure),
    or ``None`` when no failure has been observed yet."""
    if shots <= 0:
        return None
    if weight_stats is not None:
        rate = weight_stats.estimate("sn")
        lo, hi = weight_stats.wilson_interval()
    else:
        from ..injection.results import wilson_interval

        rate = errors / shots
        lo, hi = wilson_interval(errors, shots)
    if rate <= 0.0:
        return None
    return (hi - lo) / 2.0 / rate


class CampaignMonitor:
    """The ambient observability session: progress + telemetry export.

    All methods are cheap and PID-guarded; the engine calls them only
    at chunk boundaries (hundreds of shots apart), never per shot or
    per block.
    """

    def __init__(self, telemetry: Optional[str] = None,
                 progress: bool = False, stream=None,
                 export_interval_s: float = EXPORT_INTERVAL_S,
                 render_interval_s: float = RENDER_INTERVAL_S) -> None:
        self._pid = os.getpid()
        self.writer = TelemetryWriter(telemetry) if telemetry else None
        self.renderer = ProgressRenderer(stream) if progress else None
        self.export_interval_s = export_interval_s
        self.render_interval_s = render_interval_s
        self._tasks: Dict[object, _TaskState] = {}
        self._points_done = 0
        self._shots_done = 0
        self._shots_target = 0
        self._update_seq = 0
        self._worker_snaps: Dict[int, Dict[str, object]] = {}
        self._started = perf_counter()
        self._last_export = -float("inf")
        self._last_render = -float("inf")
        if self.writer is not None:
            self.writer.write({"kind": "start", "pid": self._pid})

    def _mine(self) -> bool:
        return os.getpid() == self._pid

    # -- engine-facing hooks -------------------------------------------
    def begin_campaign(self, tasks, targets) -> None:
        """Register a campaign's points (callable more than once: the
        headline command runs several campaigns in one session)."""
        if not self._mine():
            return
        for task, target in zip(tasks, targets):
            if task not in self._tasks:
                self._tasks[task] = _TaskState(task.label, int(target))
                self._shots_target += int(target)
        self.tick()

    def task_progress(self, task, shots: int, errors: int, target: int,
                      weight_stats=None) -> None:
        if not self._mine():
            return
        st = self._tasks.get(task)
        if st is None:
            st = self._tasks[task] = _TaskState(task.label, int(target))
            self._shots_target += int(target)
        if int(target) != st.target:
            # Adaptive stop moved the goalposts (target shrank to the
            # stop shot); keep the overall ETA honest.
            self._shots_target += int(target) - st.target
            st.target = int(target)
        self._shots_done += int(shots) - st.shots
        st.shots = int(shots)
        st.errors = int(errors)
        st.ci_rel = _ci_rel(st.errors, st.shots, weight_stats)
        if weight_stats is not None:
            st.ess = weight_stats.ess
        self._update_seq += 1
        st.updated = self._update_seq

    def task_done(self, task, shots: int, errors: int = 0,
                  target: Optional[int] = None) -> None:
        if not self._mine():
            return
        st = self._tasks.get(task)
        if st is None:
            st = self._tasks[task] = _TaskState(
                task.label, int(target if target is not None else shots))
            self._shots_target += st.target
            st.errors = int(errors)
        self._shots_done += int(shots) - st.shots
        st.shots = int(shots)
        if not st.done:
            st.done = True
            self._points_done += 1

    def worker_snapshot(self, wid: int, snap: Dict[str, object]) -> None:
        """Bank one worker's cumulative registry snapshot (replacement
        merge: the latest snapshot subsumes all earlier ones)."""
        if not self._mine() or not snap:
            return
        self._worker_snaps[wid] = snap

    def campaign_end(self) -> None:
        """Campaign boundary: force a snapshot export and clear the
        progress line so the campaign's own output starts on a clean
        line (the session stays open — ``headline`` runs several
        campaigns through one monitor)."""
        if not self._mine():
            return
        if self.writer is not None:
            self._last_export = perf_counter()
            self.writer.write(self._snapshot_record())
        if self.renderer is not None:
            self.renderer.clear()

    # -- sinks ---------------------------------------------------------
    def tick(self, force: bool = False) -> None:
        if not self._mine():
            return
        now = perf_counter()
        if self.renderer is not None and (
                force or now - self._last_render >= self.render_interval_s):
            self._last_render = now
            self.renderer.render(self._progress_line())
        if self.writer is not None and (
                force or now - self._last_export >= self.export_interval_s):
            self._last_export = now
            self.writer.write(self._snapshot_record())

    def _merged_snapshot(self) -> Dict[str, object]:
        snap = merge_snapshots(registry().snapshot(),
                               self._worker_snaps.values())
        profile = prof.snapshot_active()
        if profile is not None:
            snap["profile"] = profile
        return snap

    def _snapshot_record(self, final: bool = False) -> Dict[str, object]:
        rec = dict(self._merged_snapshot())
        rec["kind"] = "snapshot"
        rec["elapsed_s"] = round(perf_counter() - self._started, 3)
        rec["progress"] = {
            "points_done": self._points_done,
            "points_total": len(self._tasks),
            "shots_done": self._shots_done,
            "shots_target": self._shots_target,
        }
        workers: Dict[str, Dict[str, object]] = {}
        for wid, snap in sorted(self._worker_snaps.items()):
            shots = snap.get("counters", {}).get("engine.shots", 0)
            uptime = snap.get("uptime_s", 0.0) or 0.0
            workers[str(wid)] = {
                "shots": shots,
                "uptime_s": round(uptime, 3),
                "shots_per_s": round(shots / uptime, 1) if uptime else 0.0,
            }
        if workers:
            rec["workers"] = workers
        states = sorted(self._tasks.values(), key=lambda s: -s.updated)
        rec["tasks"] = [st.to_row() for st in states[:MAX_TASK_ROWS]]
        if len(states) > MAX_TASK_ROWS:
            rec["tasks_truncated"] = len(states) - MAX_TASK_ROWS
        if final:
            rec["final"] = True
        return rec

    def _progress_line(self) -> str:
        elapsed = perf_counter() - self._started
        rate = self._shots_done / elapsed if elapsed > 0 else 0.0
        parts = [f"pts {self._points_done}/{len(self._tasks)}",
                 f"shots {self._shots_done:,}/{self._shots_target:,}"]
        if rate > 0:
            parts.append(f"{rate:,.0f} sh/s")
            left = max(0, self._shots_target - self._shots_done)
            eta = left / rate
            parts.append(f"eta {int(eta) // 60}:{int(eta) % 60:02d}")
        current = None
        for st in sorted(self._tasks.values(), key=lambda s: -s.updated):
            if not st.done and st.updated:
                current = st
                break
        if current is not None:
            cur = f"{current.label} {current.shots:,}/{current.target:,}"
            if current.ci_rel is not None:
                cur += f" ±{current.ci_rel:.0%}"
            parts.append(cur)
        return " · ".join(parts)

    def close(self) -> None:
        if not self._mine():
            return
        if self.renderer is not None:
            self.renderer.render(self._progress_line())
            self.renderer.stream.write("\n")
            self.renderer.stream.flush()
            self.renderer._dirty = False
        if self.writer is not None:
            self.writer.write(self._snapshot_record(final=True))
            self.writer.close()


#: The installed ambient monitor (parent process), or ``None``.
_ACTIVE: Optional[CampaignMonitor] = None


def job_progress_line(status: Dict[str, object]) -> str:
    """One-line summary of a service job-status snapshot — shared by
    ``repro submit --wait`` and ``repro status --watch`` (rendered via
    :class:`ProgressRenderer` on a TTY, printed plainly otherwise)."""
    shots = int(status.get("shots_done") or 0)
    target = int(status.get("shots_target") or 0)
    pct = f"{shots / target:.0%}" if target else "-"
    counters = (status.get("telemetry") or {}).get("counters", {})
    sampled = counters.get("engine.shots")
    tail = f" [{sampled:,} sampled]" if sampled else ""
    return (f"{status.get('job', '?')} {status.get('state', '?')}: "
            f"{status.get('points_done', 0)}/{status.get('points', 0)} "
            f"point(s), {shots:,}/{target:,} shots ({pct}){tail}")


def active() -> Optional[CampaignMonitor]:
    """The ambient monitor — the engine's single cheap lookup."""
    return _ACTIVE


def install(monitor: Optional[CampaignMonitor]) -> None:
    global _ACTIVE
    _ACTIVE = monitor


@contextmanager
def session(telemetry: Optional[str] = None, quiet: bool = False,
            progress: Optional[bool] = None, stream=None
            ) -> Iterator[Optional[CampaignMonitor]]:
    """Install an ambient monitor for the duration of a ``with`` block.

    ``progress`` defaults to "stderr is a TTY and not ``quiet``"; when
    neither a telemetry path nor progress is wanted the block runs with
    no monitor at all (the engine's hooks reduce to one ``None`` check).
    """
    if progress is None:
        progress = (not quiet) and ProgressRenderer.wants_tty(stream)
    if telemetry is None and not progress:
        yield None
        return
    monitor = CampaignMonitor(telemetry=telemetry, progress=progress,
                              stream=stream)
    install(monitor)
    try:
        yield monitor
    finally:
        install(None)
        monitor.close()
