"""The repo benchmark: four campaign workloads, layered metrics.

Two ways in, one code path:

* the full report (what a person runs)::

      PYTHONPATH=src python -m benchmarks.e2e.run [--seed S] [--reps N]
          [--workload NAME] [--json OUT] [--smoke] [--write-golden]

  runs every workload ``--reps`` times untraced — fresh subprocess
  each, interleaved round-robin (A B C D, A B C D, ...) so host drift
  hits all workloads alike — then once more traced, prints every
  end-to-end and per-layer metric by name with its unit, and checks
  the outputs.  Exit status 1 on any failed check.

* one driver run (what ``BENCHMARK.json`` names)::

      python3 benchmarks/e2e/run.py --workload NAME --seed S
          --seconds T --trace 0|1

  measures one workload for about ``T`` seconds and ends its stdout
  with one JSON object ``{"correct", "attempted", "failed",
  "metrics"}``: the end-to-end metrics with ``--trace 0``, the
  per-layer metrics (one traced run beside the untraced ones) with
  ``--trace 1``.

Every timing is a median over the untraced runs; nothing end-to-end
ever depends on the tracer.  See ``README.md`` for why each workload
exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (sibling modules, path set above)
import workloads  # noqa: E402

DEFAULT_SEED = 2024
DEFAULT_REPS = 5
GOLDEN = HERE / "golden.json"
#: Scratch space for store files and span dumps, inside the checkout.
WORK_ROOT = REPO / ".bench_work"
#: One run may not outlive this (the slowest is ~10 s on a loaded host).
UNIT_TIMEOUT_S = 120.0
#: A run whose before/after host calibrations differ by more than this
#: share is flagged: its numbers carry host noise, not code.
CALIB_DRIFT = 0.15


# ----------------------------------------------------------------------
# Host calibration
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds for a fixed uint64 xorshift + popcount loop (~0.15 s).

    Timed between runs so a reader can tell a slow host from slow
    code; it exercises what the frames kernels do (whole-word numpy
    ops) and depends on no file of the repository.
    """
    import numpy as np

    words = (np.arange(1 << 15, dtype=np.uint64)
             * np.uint64(0x9E3779B97F4A7C15))
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    total = 0
    t0 = time.perf_counter()
    for _ in range(480):
        words ^= words << np.uint64(13)
        words ^= words >> np.uint64(7)
        words ^= words << np.uint64(17)
        x = words - ((words >> np.uint64(1)) & m1)
        x = (x & m2) + ((x >> np.uint64(2)) & m2)
        x = (x + (x >> np.uint64(4))) & m4
        total += int((x * np.uint64(0x0101010101010101)
                      >> np.uint64(56)).sum())
    elapsed = time.perf_counter() - t0
    assert total > 0
    return elapsed


# ----------------------------------------------------------------------
# One run = one fresh subprocess
# ----------------------------------------------------------------------
def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a run and whatever it forked, and wait until it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


class Session:
    """Scratch directory + run counter for one invocation."""

    def __init__(self, size: str, trace_dir: Optional[str]) -> None:
        self.size = size
        self.trace_dir = trace_dir
        self.root = WORK_ROOT / f"run-{os.getpid()}"
        self.count = 0
        self.last_calib = 0.0

    def __enter__(self) -> "Session":
        self.root.mkdir(parents=True, exist_ok=True)
        if self.trace_dir:
            os.makedirs(self.trace_dir, exist_ok=True)
        self.last_calib = calibrate()
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()       # only when no other run is using it
        except OSError:
            pass

    def run_unit(self, name: str, seed: int, traced: bool = False,
                 serial: bool = False) -> Dict[str, object]:
        """Run ``unit.py`` once; returns its result, or a crash record.

        The child gets its own process group so a timeout also takes
        down any worker processes it forked.
        """
        self.count += 1
        workdir = self.root / f"unit-{self.count}"
        workdir.mkdir()
        argv = [sys.executable, str(HERE / "unit.py"),
                "--workload", name, "--seed", str(seed),
                "--size", self.size, "--workdir", str(workdir)]
        if traced:
            trace_path = Path(self.trace_dir or workdir) \
                / f"{name}.spans.jsonl"
            argv += ["--trace-out", str(trace_path)]
        if serial:
            argv.append("--serial")
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv + ["--spawned-at", repr(started)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=UNIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            stdout, stderr = "", f"timed out after {UNIT_TIMEOUT_S:g} s"
        except BaseException:       # Ctrl-C: leave no process behind
            _kill_group(proc)
            raise
        unit: Dict[str, object]
        lines = stdout.strip().splitlines()
        try:
            if proc.returncode != 0 or not lines:
                raise ValueError(f"exit status {proc.returncode}")
            unit = json.loads(lines[-1])
        except ValueError as exc:
            tail = stderr.strip().splitlines()[-1:] or [""]
            unit = {"workload": name, "traced": traced, "serial": serial,
                    "crashed": True,
                    "points": workloads.points(name, self.size),
                    "failures": [f"run crashed: {exc}: {tail[0]}"]}
        unit["total_s"] = time.perf_counter() - started
        shutil.rmtree(workdir, ignore_errors=True)
        unit["calib_before"], self.last_calib = self.last_calib, calibrate()
        unit["calib_after"] = self.last_calib
        return unit

    def traced_runs(self, name: str, seed: int) -> List[Dict[str, object]]:
        """The traced run — preceded, where the untraced runs use more
        than the tracer's one worker, by an untraced serial run, so the
        tracing overhead is measured like against like."""
        runs = []
        if workloads.WORKERS[name] > 1:
            runs.append(self.run_unit(name, seed, serial=True))
        runs.append(self.run_unit(name, seed, traced=True))
        return runs


# ----------------------------------------------------------------------
# Output checks made here (the child checks the seed-free invariants)
# ----------------------------------------------------------------------
def load_golden(seed: int) -> Dict[str, List[list]]:
    """Committed per-point rows by workload, if they are for ``seed``."""
    if not GOLDEN.exists():
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    return golden["workloads"] if golden["seed"] == seed else {}


def check_units(name: str, units: List[Dict[str, object]],
                golden: Optional[List[list]]) -> None:
    """Append cross-run failures to each run's ``failures``.

    Every run of one seed must return the same per-point counts — that
    is the "2-worker counts equal the traced serial counts" check on
    ``fig5_grid`` and a determinism check everywhere — and, for the
    golden seed, the committed ones.  Points are matched by position:
    a task-key version bump re-keys every point without changing a
    single count, so keys are recorded but only counts are compared.
    """
    ok = [u for u in units if not u.get("crashed")]
    reference = [row[1:] for row in ok[0]["rows"]] if ok else []
    want = [row[1:] for row in golden] if golden is not None else None
    for unit in ok:
        counts = [row[1:] for row in unit["rows"]]
        if counts != reference:
            unit["failures"].append(
                f"{name}: counts differ from the first run of this seed"
                f" ({'traced' if unit['traced'] else 'untraced'})")
        if want is None:
            continue
        if len(want) != len(counts):
            unit["failures"].append(
                f"{name}: {len(counts)} points, golden has {len(want)}")
            continue
        for i, (got, exp) in enumerate(zip(counts, want)):
            if got != exp:
                unit["failures"].append(
                    f"{name}: point {i} (shots, errors) = {got}, "
                    f"golden {exp}")


def must_hit(name: str, size: str, layers: Dict[str, object]
             ) -> List[str]:
    """Per-workload assertions that the traced boundaries fired.  A
    missing boundary (``None``) is reported elsewhere, not here."""
    failures = []

    def check(metric: str, ok, want: str) -> None:
        value = layers.get(metric)
        if value is not None and not ok(value):
            failures.append(f"{name}: {metric} = {value:g}, want {want}")

    if name == "fig5_grid":
        check("stabilizer.sample_blocks", lambda v: v > 0, "> 0")
    else:
        check("stabilizer.sample_blocks", lambda v: v == 0, "== 0")
    if name == "service_sweep":
        npoints = workloads.points(name, size)
        check("service.leases", lambda v: v >= npoints, f">= {npoints}")
    if name == "strike_decode":
        shots = int(workloads.SIZES[name][size]["shots"])
        check("decoders.cache_misses", lambda v: v >= shots,
              f">= {shots} (every t=0 syndrome is distinct)")
    return failures


# ----------------------------------------------------------------------
# Folding runs into metrics
# ----------------------------------------------------------------------
def end_to_end(units: List[Dict[str, object]]) -> Dict[str, dict]:
    """End-to-end rows from the untraced runs (median + quartiles)."""
    per_unit = {
        "wall_s": [u["wall_s"] for u in units],
        "shots_per_s": [u["shots"] / u["wall_s"] for u in units],
        "setup_s": [u["setup_s"] for u in units],
        "peak_rss_mb": [u["peak_rss_mb"] for u in units],
    }
    rows = {metric: metrics.summary(values)
            for metric, values in per_unit.items()}
    pooled = [ms for u in units for ms in u["cached_ms"]]
    if pooled:
        # Pooled over the runs so the percentile has samples beyond it;
        # the quartiles are those of the per-run percentiles.
        for metric, q in (("cached_ms_p50", 0.5), ("cached_ms_p90", 0.9)):
            rows[metric] = metrics.summary(
                [metrics.percentile(u["cached_ms"], q) for u in units],
                metrics.percentile(pooled, q))
            rows[metric]["samples"] = len(pooled)
    for metric, row in rows.items():
        row["unit"] = metrics.BOUNDED[metric][0]
    return rows


def per_layer(name: str, untraced: List[Dict[str, object]],
              traced: Optional[Dict[str, object]],
              baseline: List[Dict[str, object]], calib: List[float]
              ) -> Dict[str, dict]:
    """Per-layer rows: ``{"value": x}`` or ``{"value": None, "why": ..}``.

    Span times and counts come from the one traced run; what a run
    reports about itself without the tracer (scheduler counters,
    ``/metrics`` sums, ``Σ elapsed_s``) is the median over the untraced
    runs, which are the ones the end-to-end numbers describe.
    """
    rows: Dict[str, dict] = {
        metric: {"value": None, "why": "no traced run"}
        for metric in metrics.PER_LAYER}

    def put(metric: str, value, why: str = "") -> None:
        rows[metric] = {"value": value} if value is not None \
            else {"value": None, "why": why}

    def median(field) -> Optional[float]:
        values = [field(u) for u in untraced]
        return statistics.median(values) if values else None

    put("host.calib_s", statistics.median(calib))
    direct = workloads.ENTRY[name] == "direct"
    if untraced and direct:
        put("parallel.worker_busy_s", median(lambda u: u["busy_s"]))
        put("parallel.overhead_s", median(
            lambda u: u["workers"] * u["wall_s"] - u["busy_s"]))
        put("parallel.leases", median(
            lambda u: u["counters"].get("scheduler.leases", 0)))
        put("parallel.steals", median(
            lambda u: u["counters"].get("scheduler.steals", 0)))
    elif untraced:
        put("service.submit_ms", median(lambda u: u["submit_ms"]))
        put("service.status_bytes", median(lambda u: u["status_bytes"]))
        put("service.leases", median(lambda u: u["service"]["leases"]))
        put("service.lease_queue_s",
            median(lambda u: u["service"]["lease_queue_s"]))
        put("service.lease_run_s",
            median(lambda u: u["service"]["lease_run_s"]))
        put("service.overhead_s", median(
            lambda u: u["wall_s"] - u["service"]["lease_run_s"]))
    if traced is not None:
        for metric, value in traced["layers"].items():
            put(metric, value,
                "boundary missing (see trace.missing_boundaries)")
            if value is None:
                rows[metric]["missing"] = True
        counters = traced["counters"]
        for metric, counter in (
                ("decoders.patterns", "decode.patterns"),
                ("decoders.distinct_patterns", "decode.distinct_patterns"),
                ("decoders.cache_hits", "decode.cache_hits"),
                ("decoders.cache_misses", "decode.cache_misses"),
                ("injection.chunks", "engine.chunks"),
                ("injection.decisions", "engine.decisions"),
                ("injection.early_stops", "engine.early_stops")):
            put(metric, counters.get(counter, 0))
        hits = counters.get("decode.cache_hits", 0)
        probes = hits + counters.get("decode.cache_misses", 0)
        put("decoders.cache_hit_ratio", hits / probes if probes else None,
            "no pattern reached the decode cache")
        put("injection.store_bytes", traced["store_bytes"])
        put("injection.store_reopen_s", traced["store_reopen_s"])
        for prefix, decoder in (("decoders.matcher_us", "mwpm"),
                                ("decoders.uf_us", "union-find")):
            replay = traced["matcher_us"].get(decoder)
            for q in ("p50", "p90"):
                put(f"{prefix}_{q}", replay[q] if replay else None,
                    f"no {decoder} decoder / packed block on the first "
                    f"point")
        # The traced run is the serial one, whatever the untraced used.
        put("parallel.efficiency", median(
            lambda u: traced["wall_s"] / (u["workers"] * u["wall_s"])),
            "no untraced run to compare with")
        put("trace.overhead_share",
            statistics.median(traced["wall_s"] / u["wall_s"] - 1.0
                              for u in baseline) if baseline else None,
            "no untraced one-worker run to compare with")
    # A layer the workload never enters is not applicable, not free.
    for metric in metrics.PER_LAYER:
        if direct and metric.startswith("service."):
            put(metric, None, "not a service workload")
        elif not direct and metric.startswith("parallel."):
            put(metric, None, "runs through the service, not Campaign.run")
    return rows


def report_workload(name: str, size: str, units: List[Dict[str, object]]
                    ) -> Dict[str, object]:
    """Everything the report says about one workload."""
    good = [u for u in units if not u.get("crashed")]
    untraced = [u for u in good if not u["traced"] and not u["serial"]]
    traced = next((u for u in good if u["traced"]), None)
    # Like against like: the traced run has one worker, so its overhead
    # is taken against the untraced serial run where there is one.
    baseline = [u for u in good if u["serial"]] or \
        [u for u in untraced if traced and u["workers"] == traced["workers"]]
    calib = [c for u in units for c in (u["calib_before"], u["calib_after"])]
    layers = per_layer(name, untraced, traced, baseline, calib)
    if traced is not None:
        traced["failures"] += must_hit(
            name, size, {m: r["value"] for m, r in layers.items()})
    attempted = sum(int(u["points"]) for u in units)
    failed = sum(min(int(u["points"]), len(u["failures"])) for u in units)
    flagged = [i for i, u in enumerate(units)
               if abs(u["calib_after"] - u["calib_before"])
               > CALIB_DRIFT * min(u["calib_before"], u["calib_after"])]
    out: Dict[str, object] = {
        "runs": len(units), "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": sorted({f for u in units for f in u["failures"]})[:20],
        "host_noise_flagged_runs": flagged,
        "calib_s": [[u["calib_before"], u["calib_after"]] for u in units],
        "end_to_end": end_to_end(untraced) if untraced else {},
        "per_layer": layers,
    }
    shares = {m: layers[m]["value"] for m in metrics.SELF_TIME_LAYERS
              if layers[m]["value"]}
    if traced is not None and shares:
        top = max(shares, key=shares.get)
        out["dominant_layer"] = [top, shares[top] / traced["wall_s"]]
    return out


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{value:g}"


def print_report(report: Dict[str, object]) -> None:
    names = list(report["workloads"])
    print(f"# benchmarks/e2e  seed={report['seed']}  size={report['size']}")
    print("\n## end-to-end (untraced runs; value = median, "
          "cached_ms_* pooled)")
    print(f"{'workload':<14} {'metric':<14} {'value':>12} {'unit':<4} "
          f"{'q1':>12} {'q3':>12} {'min':>12} {'n':>3} {'iqr/value':>9} "
          f"{'bound':>6}")
    for name in names:
        for metric, row in report["workloads"][name]["end_to_end"].items():
            print(f"{name:<14} {metric:<14} {_fmt(row['value']):>12} "
                  f"{row['unit']:<4} {_fmt(row['q1']):>12} "
                  f"{_fmt(row['q3']):>12} {_fmt(row['min']):>12} "
                  f"{row['n']:>3} {metrics.relative_spread(row):>9.3f} "
                  f"{metrics.BOUNDED[metric][2]:>6.2f}")
        w = report["workloads"][name]
        print(f"{name:<14} {'failed_share':<14} "
              f"{_fmt(float(w['failed_share'])):>12} {'':<4} "
              f"({w['failed']} of {w['attempted']} point checks, "
              f"{w['runs']} runs)")
    print("\n## per-layer (one traced run per workload; `null` = see "
          "reasons below)")
    print(f"{'metric':<30} {'unit':<6}"
          + "".join(f"{name:>15}" for name in names))
    reasons = []
    for metric, (unit, _) in metrics.PER_LAYER.items():
        cells = []
        for name in names:
            row = report["workloads"][name]["per_layer"][metric]
            cells.append(f"{_fmt(row['value']):>15}")
            if row["value"] is None:
                reasons.append((metric, name, row["why"]))
        print(f"{metric:<30} {unit:<6}" + "".join(cells))
    for name in names:
        w = report["workloads"][name]
        if "dominant_layer" in w:
            layer, share = w["dominant_layer"]
            print(f"dominant layer on {name}: {layer} "
                  f"({share:.0%} of the traced wall)")
        if w["host_noise_flagged_runs"]:
            print(f"host noise on {name}: calibration drifted > "
                  f"{CALIB_DRIFT:.0%} around runs "
                  f"{w['host_noise_flagged_runs']}")
        for failure in w["failures"]:
            print(f"FAILED {failure}")
    if report.get("missing_boundaries"):
        print("missing boundaries: "
              + ", ".join(report["missing_boundaries"]))
    print("\n## null reasons")
    for why in sorted({why for _, _, why in reasons}):
        hit = [(m, n) for m, n, w in reasons if w == why]
        print(f"{why}: "
              + ", ".join(sorted({m for m, _ in hit}))
              + " on " + ", ".join(n for n in names
                                   if any(n == x for _, x in hit)))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def driver_line(w: Dict[str, object], trace: int) -> Dict[str, object]:
    """The one JSON object the driver reads: numbers only."""
    values: Dict[str, dict] = {}
    if trace:
        for metric, (unit, _) in metrics.PER_LAYER.items():
            row = w["per_layer"][metric]
            value = row["value"]
            if value is None:
                value = metrics.MISSING_SENTINEL if row.get("missing") \
                    else 0.0
            values[metric] = {"value": value, "unit": unit}
        for metric, (unit, _, _) in metrics.SERVICE_END_TO_END.items():
            row = w["end_to_end"].get(metric)
            values[metric] = {"value": row["value"] if row else 0.0,
                              "unit": unit}
    else:
        for metric, (unit, _, _) in metrics.END_TO_END.items():
            values[metric] = {"value": w["end_to_end"][metric]["value"],
                              "unit": unit}
    return {"correct": w["failed"] == 0, "attempted": w["attempted"],
            "failed": w["failed"], "metrics": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed = every campaign's root_seed")
    parser.add_argument("--reps", type=int, default=None,
                        help=f"untraced runs per workload, interleaved "
                             f"(default {DEFAULT_REPS}; 1 with --smoke)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for about this long "
                             "instead of a fixed --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = untraced runs only, print "
                             "the end-to-end result line; 1 = add the "
                             "traced run, print the per-layer line")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale budgets, 1 rep, no golden check")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full report here")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="keep the traced runs' span files here")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's per-point counts as "
                             "golden.json (default seed and size only)")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.write_golden and (args.workload or args.smoke
                              or args.seed != DEFAULT_SEED):
        parser.error("--write-golden records all four workloads at the "
                     "default seed and size")

    if not (REPO / "src" / "repro").is_dir():
        print(f"benchmarks/e2e: no repro package under {REPO / 'src'} — "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "default"
    names = [args.workload] if args.workload else list(workloads.NAMES)
    reps = args.reps if args.reps is not None \
        else (1 if args.smoke else DEFAULT_REPS)
    want_traced = args.trace != 0
    golden = {} if args.smoke or args.write_golden \
        else load_golden(args.seed)

    units: Dict[str, List[Dict[str, object]]] = {n: [] for n in names}
    with Session(size, args.trace_out) as session:
        if args.seconds is None:
            for _ in range(reps):
                for name in names:
                    units[name].append(
                        session.run_unit(name, args.seed, traced=False))
            for name in names if want_traced else ():
                units[name] += session.traced_runs(name, args.seed)
        else:
            for name in names:
                # Leave room for the traced run (serial, so up to
                # `workers` times an untraced one) when there is one.
                reserve = 1.0 + workloads.WORKERS[name] if want_traced \
                    else 0.5
                start = time.perf_counter()
                while True:
                    unit = session.run_unit(name, args.seed, traced=False)
                    units[name].append(unit)
                    elapsed = time.perf_counter() - start
                    if elapsed + reserve * unit["total_s"] >= args.seconds \
                            and (len(units[name]) >= 2 or not want_traced):
                        break
                if want_traced:
                    units[name] += session.traced_runs(name, args.seed)

    report: Dict[str, object] = {
        "seed": args.seed, "size": size,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": {},
        "missing_boundaries": sorted({
            target for runs in units.values() for u in runs
            for target in u.get("missing", ())}),
    }
    for name in names:
        check_units(name, units[name], golden.get(name))
        report["workloads"][name] = report_workload(
            name, size, units[name])
    print_report(report)

    failed = sum(w["failed"] for w in report["workloads"].values())
    if args.write_golden:
        if failed:
            print("golden.json not written: the run failed its checks",
                  file=sys.stderr)
            return 1
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "size": size, "workloads": {
                name: units[name][0]["rows"] for name in names}}, fh,
                separators=(",", ":"))
            fh.write("\n")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    if args.trace is not None:
        w = report["workloads"][names[0]]
        if not w["end_to_end"]:
            print("no run completed; no result line", file=sys.stderr)
            return 1
        print(json.dumps(driver_line(w, args.trace)))
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
