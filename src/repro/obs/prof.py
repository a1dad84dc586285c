"""Opt-in deterministic profiler: wall-time below the phase spans.

The PR 7 registry answers "how long did ``sample`` take"; this module
answers "on which op kind / decode stage did it go".  Three taps, all
RNG-neutral (the profiler reads clocks only — counts and adaptive stop
shots are bit-identical with profiling on or off, property-tested):

* **Kernel buckets** — the frames executor times ops against
  per-op-kind buckets (``cx``, ``h``, ``measure``, ``depolarize``, the
  ``.fused`` layer twins, ``depolarize.draw`` vs the apply sites,
  ...).  Per-op clocking is *sampled*: in one block in
  :data:`SAMPLE_EVERY` the native op loop clocks itself, into
  accumulators folded into these buckets — a block here is one executor run,
  a wide span of several canonical blocks included (blocks are repeats
  of one compiled program, so sampled shares are the run's shares),
  every block contributes its wall time, and
  :meth:`Profiler.snapshot` scales the sampled buckets up to
  whole-run wall time — scalar frame ops are a few µs each, and
  clocking every one of them would alone blow the overhead budget.
* **Stages** — coarse sub-phase attribution recorded by name
  (:meth:`Profiler.stage`): the batched decoder splits its time into
  pattern dedup / cache probe / matcher, the tableau walk into gates /
  deterministic and random measurement / noise.
* **Span paths** — a hook on the registry's span stack accumulates
  wall time per full span *path*, from which per-path self-time
  (cumulative minus nested children, kernels and stages included)
  falls out — the collapsed-stack flamegraph export.

Cost contract, like the registry's: **zero when off** — hot call sites
do one ``None`` check against :data:`_ACTIVE` — and < 2% on the d=5
frames hot path when on (gated in ``benchmarks/bench_prof.py``).  The
profiler is process-local and parent-side: :func:`repro.obs.reset`
(the worker-process entry) disables it, so ``repro perf record`` on a
``-j N`` campaign attributes the dispatching process only.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from .metrics import registry

#: Opcode-indexed kernel tables are sized for every current opcode
#: plus headroom.
_TABLE_SIZE = 32

#: Per-op kernel timing samples one block in this many (the first
#: block is always sampled, so short runs still fill their buckets);
#: the remaining blocks dispatch unclocked and contribute wall time
#: only.  A clocked d=5 block costs ~0.2 ms extra on a ~3 ms
#: sample+decode block, so 1 in 16 keeps the sampler's share of the
#: < 2% budget near 0.5%.
SAMPLE_EVERY = 16


class KernelStats:
    """One kernel bucket: wall-clock, invocations, scalar-equivalent
    ops (a fused layer op of width *w* counts *w* ops)."""

    __slots__ = ("total_s", "count", "ops")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0
        self.ops = 0


class Profiler:
    """Accumulates kernel / stage / span-path attribution.

    Buckets are keyed under the registry span stack at record time, so
    the flamegraph shows ``sample;frames.cx.fused`` rather than a flat
    kernel namespace.  The stack lookup happens once per block (not
    per op): the executor fetches an opcode-indexed table up front and
    indexes it in its inner loop.
    """

    def __init__(self) -> None:
        # prefix (span-path tuple) -> opcode-indexed List[KernelStats]
        self._op_tables: Dict[Tuple[str, ...], List[KernelStats]] = {}
        # prefix -> [total_s, blocks, sampled_s, sampled_blocks]
        self._blocks: Dict[Tuple[str, ...], List] = {}
        # (prefix, stage name) -> [total_s, calls]
        self._stages: Dict[Tuple[Tuple[str, ...], str], List] = {}
        # span path tuple -> [total_s, count]
        self._paths: Dict[Tuple[str, ...], List] = {}
        self._block_ctr = 0
        self._cur_blk: Optional[List] = None
        self._cur_sampled = False
        self._start = perf_counter()

    # -- recording -----------------------------------------------------
    def begin_block(self) -> Tuple[List[KernelStats], bool]:
        """Open a block under the current span path: returns the
        opcode-indexed kernel table and whether this block is a
        per-op-timed sample (1 in :data:`SAMPLE_EVERY`; the first
        block always).  The executor indexes the table in its inner
        loop (no dict hashing per op) and must close the block with
        :meth:`end_block`.  Not re-entrant — the frames executor runs
        one block at a time."""
        prefix = tuple(registry()._stack)
        tab = self._op_tables.get(prefix)
        if tab is None:
            tab = self._op_tables[prefix] = [
                KernelStats() for _ in range(_TABLE_SIZE)]
            self._blocks[prefix] = [0.0, 0, 0.0, 0]
        self._cur_blk = self._blocks[prefix]
        n = self._block_ctr
        self._block_ctr = n + 1
        self._cur_sampled = n % SAMPLE_EVERY == 0
        return tab, self._cur_sampled

    def end_block(self, dt: float) -> None:
        """Close the block opened by :meth:`begin_block` with its wall
        time — every block contributes here; sampled ones additionally
        filled their kernel buckets."""
        blk = self._cur_blk
        if blk is None:  # pragma: no cover - executor always pairs
            return
        blk[0] += dt
        blk[1] += 1
        if self._cur_sampled:
            blk[2] += dt
            blk[3] += 1
        self._cur_blk = None

    def stage(self, name: str, dt: float, calls: int = 1) -> None:
        """Attribute ``dt`` seconds to sub-phase ``name`` under the
        current span path (per batch, not per op — cheap).  A name
        written ``"stage/sub-stage"`` lands beneath ``stage`` in the
        path tree, so the part does not count twice against the span's
        self-time."""
        *under, name = name.split("/")
        key = (tuple(registry()._stack) + tuple(under), name)
        row = self._stages.get(key)
        if row is None:
            row = self._stages[key] = [0.0, 0]
        row[0] += dt
        row[1] += calls

    def _on_span(self, path: Tuple[str, ...], dt: float) -> None:
        row = self._paths.get(path)
        if row is None:
            row = self._paths[path] = [0.0, 0]
        row[0] += dt
        row[1] += 1

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable profile: aggregated ``kernels`` and
        ``stages`` plus the ``paths`` tree with per-path self-time.

        Kernel buckets hold per-op times from the sampled blocks; here
        they are scaled to *all* blocks' wall time (per span-path
        prefix, so a fully-sampled short run stays exact) — the
        ``sampling`` section records the coverage the estimate rests
        on."""
        from ..frames.program import OP_KIND  # local: frames imports prof

        kernels: Dict[str, Dict[str, object]] = {}
        stages: Dict[str, Dict[str, object]] = {}
        # Combined tree: span paths plus kernel/stage leaves beneath
        # the span path they were recorded under.
        entries: Dict[Tuple[str, ...], List] = {}

        def entry(path: Tuple[str, ...]) -> List:
            row = entries.get(path)
            if row is None:
                row = entries[path] = [0.0, 0]
            return row

        for path, (total, count) in self._paths.items():
            row = entry(path)
            row[0] += total
            row[1] += count
        blocks_total = blocks_sampled = 0
        for prefix, tab in self._op_tables.items():
            blk = self._blocks.get(prefix) or [0.0, 0, 0.0, 0]
            blocks_total += blk[1]
            blocks_sampled += blk[3]
            f_time = blk[0] / blk[2] if blk[2] > 0.0 else 1.0
            f_count = blk[1] / blk[3] if blk[3] else 1.0
            for code, st in enumerate(tab):
                if not st.count:
                    continue
                kind = OP_KIND.get(code, f"op{code}")
                agg = kernels.setdefault(
                    kind, {"total_s": 0.0, "calls": 0, "ops": 0})
                agg["total_s"] += st.total_s * f_time
                agg["calls"] += int(round(st.count * f_count))
                agg["ops"] += int(round(st.ops * f_count))
                row = entry(prefix + (f"frames.{kind}",))
                row[0] += st.total_s * f_time
                row[1] += int(round(st.count * f_count))
        for (prefix, name), (total, calls) in self._stages.items():
            agg = stages.setdefault(name, {"total_s": 0.0, "calls": 0})
            agg["total_s"] += total
            agg["calls"] += calls
            row = entry(prefix + (name,))
            row[0] += total
            row[1] += calls

        child_sum: Dict[Tuple[str, ...], float] = {}
        for path, (total, _count) in entries.items():
            if len(path) > 1:
                parent = path[:-1]
                child_sum[parent] = child_sum.get(parent, 0.0) + total
        paths = {
            "/".join(path): {
                "total_s": round(total, 6),
                "count": count,
                "self_s": round(max(total - child_sum.get(path, 0.0), 0.0),
                                6),
            }
            for path, (total, count) in sorted(entries.items())}
        for k in kernels.values():
            k["total_s"] = round(k["total_s"], 6)
        for s in stages.values():
            s["total_s"] = round(s["total_s"], 6)
        return {"enabled_s": round(perf_counter() - self._start, 6),
                "sampling": {"every": SAMPLE_EVERY,
                             "blocks": blocks_total,
                             "sampled": blocks_sampled},
                "kernels": kernels, "stages": stages, "paths": paths}

    def flame_lines(self) -> List[str]:
        """Collapsed-stack flamegraph lines: one per span path,
        ``a;b;c <self-time in µs>`` — feed straight into
        ``flamegraph.pl`` / speedscope."""
        snap = self.snapshot()
        return [f"{path.replace('/', ';')} "
                f"{round(row['self_s'] * 1e6)}"
                for path, row in snap["paths"].items()]


#: The active profiler, or ``None``.  Hot call sites read this module
#: global directly — one global load + ``None`` check when profiling
#: is off.
_ACTIVE: Optional[Profiler] = None


def enable() -> Profiler:
    """Install (or return) the process profiler and tap the registry's
    span exits."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Profiler()
        registry().set_span_hook(_ACTIVE._on_span)
    return _ACTIVE


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None
    registry().set_span_hook(None)


@contextmanager
def profile() -> Iterator[Profiler]:
    """``with prof.profile() as p: ...`` — enable for the duration."""
    p = enable()
    try:
        yield p
    finally:
        disable()


def snapshot_active() -> Optional[Dict[str, object]]:
    """The active profiler's snapshot, or ``None`` when off — the
    one-liner sinks and the service use to attach a ``profile``
    section."""
    return _ACTIVE.snapshot() if _ACTIVE is not None else None


def render_profile(profile_snap: Dict[str, object],
                   top: int = 20) -> str:
    """ASCII profile report: kernel buckets, decode stages, hottest
    span paths by self-time."""
    lines: List[str] = []
    kernels = profile_snap.get("kernels", {})
    if kernels:
        total = sum(v["total_s"] for v in kernels.values()) or 1.0
        samp = profile_snap.get("sampling") or {}
        if samp.get("sampled", 0) < samp.get("blocks", 0):
            lines.append(
                f"kernel buckets (frames executor; "
                f"{samp['sampled']}/{samp['blocks']} blocks op-sampled, "
                f"scaled to wall time)")
        else:
            lines.append("kernel buckets (frames executor)")
        lines.append(f"  {'kind':<20} {'calls':>9} {'ops':>11} "
                     f"{'total':>10}  share")
        for kind, v in sorted(kernels.items(),
                              key=lambda kv: -kv[1]["total_s"]):
            lines.append(
                f"  {kind:<20} {v['calls']:>9d} {v['ops']:>11d} "
                f"{v['total_s']:>9.3f}s {100 * v['total_s'] / total:>5.1f}%")
    stages = profile_snap.get("stages", {})
    if stages:
        if lines:
            lines.append("")
        lines.append("attributed stages")
        lines.append(f"  {'stage':<28} {'calls':>9} {'total':>10}")
        for name, v in sorted(stages.items(),
                              key=lambda kv: -kv[1]["total_s"]):
            lines.append(f"  {name:<28} {v['calls']:>9d} "
                         f"{v['total_s']:>9.3f}s")
    paths = profile_snap.get("paths", {})
    if paths:
        if lines:
            lines.append("")
        lines.append(f"span paths by self-time (top {top})")
        lines.append(f"  {'path':<44} {'count':>8} {'total':>10} "
                     f"{'self':>10}")
        ranked = sorted(paths.items(), key=lambda kv: -kv[1]["self_s"])
        for path, v in ranked[:top]:
            lines.append(f"  {path:<44} {v['count']:>8d} "
                         f"{v['total_s']:>9.3f}s {v['self_s']:>9.3f}s")
    if not lines:
        lines.append("profile: no samples recorded")
    return "\n".join(lines)
