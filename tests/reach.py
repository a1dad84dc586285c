"""Reach driver: which ``src/repro`` functions does a user-facing path call?

Runs every ``repro`` command, the six examples, served jobs and the
repo benchmark (``benchmarks/e2e/run.py --smoke``, traced) at tiny
budgets, plus the fault inputs that reach the safety paths (a fresh
kernel cache, a worker crashing mid-reply, SIGTERM mid-campaign and
the resume after it, a rejected spec, an unknown job id).  Each
process runs under a ``sys.setprofile`` hook that records the code
object of every call; forked workers report theirs before they exit.
A function defined in ``src/repro`` (dunders and abstract methods
excepted) that no recorded call entered, and that no dunder of its
class reads through ``self``, is *unreached*.  Stdlib only:
``coverage`` is not a dependency.

    python tests/reach.py                 # print the unreached functions
    python tests/reach.py --json OUT.json # ... and write the summary

``tests/test_reach.py`` pins the result: a new unreached function
fails unless it is on :data:`ALLOW`, with a reason.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import pty
import runpy
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import urllib.request
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

#: Seconds a head may take to print its URL, a job to finish, a
#: process to exit.
STARTUP_S = 60.0
EXIT_S = 60.0

Key = Tuple[str, int]    # (path relative to SRC, first line)


#: The unreached functions kept in ``src/``, each with why.  Before
#: adding one, delete the function or add the input that reaches it.
ALLOW: Dict[str, str] = {
    "service/client.py::ServiceClient.fail":
        "a pull runner reports a lease whose execution raised; a spec "
        "the head accepts does not raise at execution",
    "noise/base.py::NoiseChannel.site_table":
        "the error a user-defined channel without a site table meets; "
        "every shipped channel defines one",
    "obs/trace.py::set_enabled":
        "the switch the trace-overhead bench and the traced-vs-untraced "
        "bit-identity test flip; no command turns tracing off",
    "obs/trace.py::TraceStore._evict":
        "the head's trace cap (MAX_SPANS = 4096) binds after ~700 fresh "
        "served points, far past the driver's budget",
}


# -- enumeration -------------------------------------------------------

def functions(src: Path = SRC) -> Dict[str, Tuple[Key, ...]]:
    """Every function under ``src`` but dunders and abstract methods,
    by ``path::qualname``,
    with the keys a call of it is recorded under: its ``def`` line and,
    when decorated, its first decorator line (the ``co_firstlineno``
    of a decorated function)."""
    return _scan(src)[0]


def _scan(src: Path) -> Tuple[Dict[str, Tuple[Key, ...]], Set[str]]:
    """:func:`functions`, and the ``path::Class.attr`` names that the
    dunders of each class read through ``self``."""
    found: Dict[str, Tuple[Key, ...]] = {}
    reads: Set[str] = set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    dunder = (child.name.startswith("__")
                              and child.name.endswith("__"))
                    if dunder and isinstance(node, ast.ClassDef):
                        reads.update(
                            f"{rel}::{prefix}{n.attr}"
                            for n in ast.walk(child)
                            if isinstance(n, ast.Attribute)
                            and isinstance(n.value, ast.Name)
                            and n.value.id == "self")
                    if not (dunder or _abstract(child)):
                        lines = {child.lineno}
                        if child.decorator_list:
                            lines.add(child.decorator_list[0].lineno)
                        found[f"{rel}::{name}"] = tuple(
                            (rel, line) for line in sorted(lines))
                    visit(child, f"{name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found, reads


def _abstract(node) -> bool:
    """An ``@abstractmethod`` declares an interface; nothing calls it."""
    return any(ast.unparse(dec).split(".")[-1] == "abstractmethod"
               for dec in node.decorator_list)


def unreached(reached: Iterable[Key], src: Path = SRC) -> List[str]:
    """Names from :func:`functions` none of whose keys was reached and
    that no dunder of their class reads through ``self``: dunders are
    not pinned (``repr``, ``==`` and ``len`` call them implicitly), so
    a property a ``__repr__`` formats stays in use."""
    reached = set(reached)
    found, dunder_reads = _scan(src)
    return [name for name, keys in found.items()
            if not reached.intersection(keys) and name not in dunder_reads]


# -- the hook, inside each driven process ------------------------------

def install(out: Path, src: Path = SRC) -> Callable[[], None]:
    """Record every call from here on (this thread, later threads and
    forked children); dump the ``src`` keys reached into ``out`` at
    exit, and from each forked worker before it ``os._exit``\\ s.
    Returns what :func:`_run_steps` calls after each step: it records
    the frames of the exception the step raised, if any, and puts the
    hook back if that exception switched it off."""
    codes: Set[object] = set()
    add = codes.add

    def profile(frame, event, arg) -> None:
        if event == "call":
            add(frame.f_code)

    def after_step() -> None:
        # A signal handler that runs inside the hook makes no "call"
        # event, and the exception it raises switches profiling off;
        # its frame is still on the exception's traceback.
        tb = sys.exc_info()[2]
        while tb is not None:
            add(tb.tb_frame.f_code)
            tb = tb.tb_next
        sys.setprofile(profile)

    prefix = str(src.resolve()) + os.sep

    def dump() -> None:
        sys.setprofile(None)
        keys = sorted({(os.path.relpath(code.co_filename, src),
                        code.co_firstlineno)
                       for code in list(codes)
                       if os.path.realpath(code.co_filename)
                       .startswith(prefix)})
        fd, path = tempfile.mkstemp(prefix=f"reach-{os.getpid()}-",
                                    suffix=".json", dir=out)
        with os.fdopen(fd, "w") as fh:
            json.dump(keys, fh)

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)

    from repro.parallel import worker

    worker_main = worker.worker_main

    def reporting_worker_main(*args, **kwargs):
        try:
            return worker_main(*args, **kwargs)
        finally:
            dump()

    worker.worker_main = reporting_worker_main
    return after_step


def _run_steps(steps: List[dict], after_step: Callable[[], None]) -> int:
    """Run each step in this process: ``argv`` through ``repro.cli.main``
    or ``example`` as ``__main__``, with ``env`` set around it.  A step
    must exit 0, or non-zero where it says ``"fails": true``."""
    from repro.cli import main

    bad = 0
    for step in steps:
        saved = {k: os.environ.get(k) for k in step.get("env", {})}
        os.environ.update(step.get("env", {}))
        try:
            if "example" in step:
                sys.argv = [step["example"]]
                runpy.run_path(step["example"], run_name="__main__")
                code = 0
            else:
                code = main(step["argv"])
        except SystemExit as exc:
            after_step()
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:    # noqa: BLE001 — reported, then counted
            after_step()
            traceback.print_exc()
            code = 1
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        sys.stdout.flush()
        if bool(code) != bool(step.get("fails")):
            print(f"reach: step {step} exited {code}", file=sys.stderr)
            bad += 1
    return 1 if bad else 0


# -- the driver --------------------------------------------------------

class Driver:
    """Start hooked processes under ``work``; their keys land in
    ``work/out``."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
               else []))
        self.env.pop("REPRO_WORKERS", None)
        self.procs: List[subprocess.Popen] = []
        self._n = 0

    def path(self, name: str) -> str:
        return str(self.work / name)

    def spec(self, name: str, spec: dict) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path

    def start(self, steps: List[dict], env: Optional[dict] = None,
              tty: bool = False) -> subprocess.Popen:
        """One hooked process running ``steps``; its stdout goes to a
        log under ``work`` (stderr to a pty with ``tty``)."""
        steps_file = self.spec(f"steps-{self._n + 1}.json", steps)
        return self._popen([sys.executable, __file__, "--hook",
                            str(self.out), steps_file], env, tty)

    def run_program(self, argv: List[str]) -> None:
        """Run the Python program ``argv`` with the hook installed in
        it and in every Python process it starts, by a
        ``sitecustomize`` module on their path."""
        site = self.work / "site"
        site.mkdir(exist_ok=True)
        (site / "sitecustomize.py").write_text(
            "import importlib.util, pathlib\n"
            "spec = importlib.util.spec_from_file_location(\n"
            f"    '_reach_hook', {str(Path(__file__).resolve())!r})\n"
            "hook = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(hook)\n"
            f"hook.install(pathlib.Path({str(self.out)!r}))\n")
        proc = self._popen(
            [sys.executable, *argv],
            {"PYTHONPATH": os.pathsep.join([str(site),
                                            self.env["PYTHONPATH"]])},
            False)
        try:
            self.wait(proc)
        finally:
            if proc.poll() is None:
                # Ctrl-C lets the program take down what it started in
                # sessions of their own (run.py kills a unit's group).
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=EXIT_S)
                except subprocess.TimeoutExpired:
                    pass

    def _popen(self, argv: List[str], env: Optional[dict],
               tty: bool) -> subprocess.Popen:
        self._n += 1
        log = open(self.path(f"log-{self._n}.txt"), "w")
        stderr, master = subprocess.STDOUT, None
        if tty:
            master, stderr = pty.openpty()
        try:
            proc = subprocess.Popen(
                argv, stdout=log, stderr=stderr, cwd=self.work,
                env={**self.env, **(env or {})})
        finally:
            log.close()
        if master is not None:
            os.close(stderr)
            threading.Thread(target=_drain, args=(master,),
                             daemon=True).start()
        proc.log = self.path(f"log-{self._n}.txt")
        self.procs.append(proc)
        return proc

    def run(self, steps: List[dict], env: Optional[dict] = None,
            tty: bool = False) -> None:
        self.wait(self.start(steps, env, tty))

    def wait(self, proc: subprocess.Popen) -> None:
        try:
            status = proc.wait(timeout=EXIT_S)
        except subprocess.TimeoutExpired:
            status = f"nothing in {EXIT_S:g} s"
        if status != 0:
            with open(proc.log) as fh:
                raise RuntimeError(f"reach: {proc.args} exited "
                                   f"{status}:\n{fh.read()[-4000:]}")

    @contextmanager
    def head(self, *args: str, env: Optional[dict] = None):
        """A hooked ``repro serve`` on an ephemeral port, yielding its
        URL and stopped with SIGTERM (a clean shutdown) on exit."""
        proc = self.start([{"argv": ["serve", "--port", "0", *args]}],
                          env)
        try:
            yield self._url(proc)
        finally:
            proc.send_signal(signal.SIGTERM)
            self.wait(proc)

    def _url(self, proc: subprocess.Popen) -> str:
        deadline = time.monotonic() + STARTUP_S
        while time.monotonic() < deadline:
            with open(proc.log) as fh:
                for line in fh:
                    if line.startswith("serving campaigns at "):
                        return line.split()[3]
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        raise RuntimeError(f"reach: head {proc.args} did not start")

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=EXIT_S)

    def reached(self) -> Set[Key]:
        keys: Set[Key] = set()
        for path in self.out.glob("reach-*.json"):
            with open(path) as fh:
                keys.update((rel, line) for rel, line in json.load(fh))
        return keys

    def pids(self) -> Set[int]:
        """Every process started here, and every hooked process that
        reported (forked workers included)."""
        return {proc.pid for proc in self.procs} | {
            int(path.name.split("-")[1])
            for path in self.out.glob("reach-*.json")}


def _drain(fd: int) -> None:
    try:
        while os.read(fd, 4096):
            pass
    except OSError:
        pass
    finally:
        os.close(fd)


def _http(url: str, body: Optional[dict] = None) -> bytes:
    data = None if body is None else json.dumps(body).encode()
    with urllib.request.urlopen(url, data=data, timeout=EXIT_S) as resp:
        return resp.read()


def _cli(*argv: str, **step) -> dict:
    return {"argv": list(argv), **step}


SPEC = {
    "codes": [{"kind": "repetition", "distance": [3, 1]},
              {"kind": "xxzz", "distance": [3, 3]}],
    "archs": [None],
    "faults": [{"kind": "none"},
               {"kind": "radiation", "root_qubit": 2, "time_index": 0}],
    "p_values": [1e-2],
    "shots": 512,
    "root_seed": 2024,
}
STRUCK = {
    "codes": [{"kind": "repetition", "distance": [3, 1]},
              {"kind": "xxzz", "distance": [3, 3]}],
    "archs": [None],
    "faults": [{"kind": "radiation", "root_qubit": 2, "time_index": 0,
                "strike_round": 1}],
    "p_values": [1e-2],
    "rounds": 3,
    "shots": 512,
    "root_seed": 7,
}


def drive(work: Path) -> Tuple[Set[Key], Set[int]]:
    """Run every input; return the keys reached and the pids of every
    process that ran."""
    d = Driver(work)
    try:
        _drive(d)
        return d.reached(), d.pids()
    finally:
        d.stop_all()


def _drive(d: Driver) -> None:
    spec = d.spec("spec.json", SPEC)
    struck = d.spec("struck.json", STRUCK)
    deep = d.spec("deep.json", {**SPEC, "codes": SPEC["codes"][:1],
                                "faults": SPEC["faults"][:1],
                                "shots": 10 ** 7})
    quiet = d.spec("quiet.json", {**SPEC, "codes": SPEC["codes"][1:],
                                  "faults": SPEC["faults"][:1],
                                  "p_values": [2e-3]})
    hex_spec = d.spec("hex.json", {**SPEC, "codes": SPEC["codes"][:1],
                                   "archs": [{"name": "heavy_hex",
                                              "args": [3]}],
                                   "faults": SPEC["faults"][:1]})
    x_basis = d.spec("x_basis.json", {
        **SPEC, "codes": [{"kind": "repetition", "distance": [1, 3]}],
        "faults": SPEC["faults"][:1], "basis": "X"})
    typo = d.spec("typo.json", {**SPEC, "shot": 4})
    crash = {"REPRO_TEST_CRASH_WORKER": "0", "REPRO_TEST_CRASH_AFTER": "1"}

    # SIGTERM mid-campaign, from a fresh kernel cache: the kernels
    # build first, then the first banked chunk is the cue.
    store = d.path("term.jsonl")
    term = d.start([_cli("campaign", deep, "-j", "2", "--store", store,
                         "--quiet", fails=True)],
                   env={"XDG_CACHE_HOME": d.path("cache")})
    deadline = time.monotonic() + STARTUP_S
    while not (os.path.exists(store) and os.path.getsize(store)):
        if term.poll() is not None or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    term.send_signal(signal.SIGTERM)
    term.wait(timeout=EXIT_S)
    d.run([_cli("store", "lookup", store, "--spec", deep),
           _cli("campaign", deep, "-j", "1", "--store", store,
                "--adaptive", "0.5", "--quiet")])

    with ExitStack() as heads:
        a = heads.enter_context(d.head(
            "--store", d.path("a.jsonl"), "-j", "1", "--slice-shots",
            "256", "--lease-ttl", "60", "--telemetry",
            d.path("head.jsonl")))
        b = heads.enter_context(d.head(
            "--store", d.path("b.jsonl"), "-j", "2", env=crash))
        c = heads.enter_context(d.head(
            "--store", d.path("c.jsonl"), "-j", "0"))
        d.run([
            _cli("submit", spec, "--url", a, "--wait", "--csv",
                 d.path("served.csv")),
            _cli("submit", spec, "--url", a),
            _cli("status", "--url", a),
            _cli("status", "job-1", "--url", a, "--json"),
            _cli("status", "job-1", "--url", a, "--watch"),
            _cli("status", "job-999", "--url", a, fails=True),
            _cli("submit", quiet, "--url", b, "--wait"),
            _cli("fleet", a, b),
            _cli("fleet", a, b, "--json"),
            _cli("submit", spec, "--url", c),
            _cli("serve", "--runner", c, "--idle-timeout", "1",
                 "--poll", "0.1"),
            _cli("status", "job-1", "--url", c),
        ])
        d.run([_cli("submit", struck, "--url", a, "--wait")], tty=True)
        _http(f"{a}/metrics")
        _http(f"{a}/jobs/job-1/trace")
        _http(f"{a}/lookup", {"spec": SPEC})

    telemetry = d.path("t.jsonl")
    d.run([
        _cli("fig3", "--csv", d.path("fig3.csv")),
        _cli("fig4", "--csv", d.path("fig4.csv")),
        _cli("fig5", "--shots", "16", "-j", "1", "--quiet"),
        _cli("fig6", "--shots", "16", "-j", "1", "--quiet"),
        _cli("fig7", "--shots", "16", "-j", "1", "--quiet"),
        _cli("fig8", "--shots", "16", "-j", "1", "--quiet"),
        _cli("headline", "--shots", "16", "-j", "1", "--quiet"),
        _cli("detect", "--shots", "64", "--distance", "5", "--rounds", "4",
             "--strike-round", "1"),
        _cli("rare", "--distance", "3", "--p", "0.01", "--shots", "512",
             "--pilot-shots", "256"),
        _cli("campaign", spec, "-j", "1", "--telemetry", telemetry),
        _cli("campaign", spec, "-j", "2", "--adaptive", "0.5",
             "--min-shots", "256", "--shots", "4096", "--chunk-shots",
             "512", "--telemetry", d.path("t3.jsonl")),
        _cli("campaign", spec, "-j", "2", "--quiet", env=crash),
        _cli("campaign", spec, "--store", d.path("s1.jsonl"), "-j", "1"),
        _cli("campaign", spec, "--store", d.path("s1.jsonl"), "-j", "1"),
        _cli("campaign", quiet, "--store", d.path("s2.jsonl"), "-j", "1",
             "--sampler", "tilt:4", "--telemetry", d.path("t2.jsonl")),
        _cli("campaign", quiet, "-j", "1", "--sampler", "tilt"),
        _cli("campaign", quiet, "-j", "1", "--sampler", "split:3"),
        _cli("campaign", struck, "-j", "1", "--recovery", "reweight"),
        _cli("campaign", struck, "-j", "1", "--recovery",
             "discard_window", "--backend", "tableau", "--decoder", "uf"),
        _cli("campaign", hex_spec, "-j", "1"),
        _cli("campaign", x_basis, "-j", "1"),
        _cli("campaign", typo, fails=True),
        _cli("store", "merge", d.path("merged.jsonl"), d.path("s1.jsonl"),
             d.path("s2.jsonl")),
        _cli("store", "lookup", d.path("merged.jsonl"), "--spec", spec),
        _cli("store", "lookup", d.path("merged.jsonl"), "--key", ""),
        _cli("store", "stats", d.path("merged.jsonl")),
        _cli("report", telemetry),
        _cli("perf", "record", "--json", d.path("prof.json"), "--flame",
             d.path("flame.txt"), "--", "campaign", spec, "-j", "1",
             "--quiet", "--telemetry", d.path("tp.jsonl")),
        _cli("report", telemetry, d.path("t2.jsonl"), d.path("tp.jsonl")),
        *({"example": str(path)} for path in sorted(EXAMPLES.glob("*.py"))),
    ])
    d.run_program([str(ROOT / "benchmarks" / "e2e" / "run.py"), "--smoke"])


def run(work: Optional[Path] = None) -> dict:
    """Drive every input and summarise: the function count, the
    unreached names, the allow-listed ones and the pids that ran."""
    with ExitStack() as stack:
        if work is None:
            work = Path(stack.enter_context(
                tempfile.TemporaryDirectory(prefix="reach-")))
        reached, pids = drive(work)
    return {"functions": len(functions()), "unreached": unreached(reached),
            "allowed": sorted(ALLOW), "pids": sorted(pids)}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--hook"]:
        after_step = install(Path(argv[1]))
        with open(argv[2]) as fh:
            return _run_steps(json.load(fh), after_step)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the summary here")
    parser.add_argument("--work", default=None, metavar="DIR",
                        help="keep logs and stores here")
    args = parser.parse_args(argv)
    started = time.monotonic()
    summary = run(Path(args.work) if args.work else None)
    for name in summary["unreached"]:
        print(f"{name}  (allow-listed)" if name in ALLOW else name)
    print(f"{len(summary['unreached'])} of {summary['functions']} "
          f"functions unreached, {len(ALLOW)} allow-listed "
          f"({time.monotonic() - started:.0f} s)", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
