"""The reach pin: every ``src/repro`` function is called by a command,
an example or a served job (``tests/reach.py`` drives them all), or it
is on the driver's short allow-list with a reason.

A new unreached function fails here.  Delete it, or add the input that
reaches it to ``tests/reach.py``; allow-list it only when neither fits.
"""

import importlib.util
import json
import textwrap
import time

import pytest

import reach
from proctree import alive


@pytest.fixture(scope="module")
def summary(tmp_path_factory):
    """One driver run for the module; its summary is also written to
    ``reach.json`` in its work dir, where CI reads the counts."""
    work = tmp_path_factory.mktemp("reach")
    result = reach.run(work)
    (work / "reach.json").write_text(json.dumps(result, indent=2))
    return result


@pytest.mark.slow
def test_every_function_is_reached_or_allow_listed(summary):
    new = sorted(set(summary["unreached"]) - set(reach.ALLOW))
    assert not new, (
        "src functions no command, example or served job calls — delete "
        "each, or add the input that reaches it to tests/reach.py:\n"
        + "\n".join(new))


@pytest.mark.slow
def test_allow_list_is_short_current_and_explained(summary):
    assert len(reach.ALLOW) <= 20
    assert all(reason.strip() for reason in reach.ALLOW.values())
    assert set(reach.ALLOW) <= set(reach.functions())
    reached_now = sorted(set(reach.ALLOW) - set(summary["unreached"]))
    assert not reached_now, f"reached now, drop from ALLOW: {reached_now}"


@pytest.mark.slow
def test_no_process_outlives_the_driver(summary):
    assert summary["pids"]
    deadline = time.monotonic() + 10.0
    while [pid for pid in summary["pids"] if alive(pid)] \
            and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not [pid for pid in summary["pids"] if alive(pid)]


@pytest.mark.slow
def test_forked_workers_report_their_calls(tmp_path):
    """A ``-j 2`` campaign's leases run only in forked workers, which
    leave through ``os._exit``: their calls count only because each
    worker dumps what it reached before it exits."""
    driver = reach.Driver(tmp_path)
    try:
        driver.run([{"argv": ["campaign", driver.spec("spec.json",
                                                      reach.SPEC),
                              "-j", "2", "--quiet"]}])
        reached = driver.reached()
    finally:
        driver.stop_all()
    names = reach.functions()
    for name in ("parallel/worker.py::worker_main",
                 "parallel/worker.py::execute_lease_wire"):
        assert reached & set(names[name]), name


def test_decorated_function_is_matched_by_its_decorator_line(tmp_path):
    (tmp_path / "box.py").write_text(textwrap.dedent("""\
        class Box:
            @property
            def size(self):
                return 1

            @property
            def unused(self):
                return 2
        """))
    found = reach.functions(tmp_path)
    assert found["box.py::Box.size"] == (("box.py", 2), ("box.py", 3))
    spec = importlib.util.spec_from_file_location(
        "reach_probe_box", tmp_path / "box.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    code = module.Box.size.fget.__code__
    assert code.co_firstlineno == 2       # the decorator line
    assert reach.unreached({("box.py", code.co_firstlineno)},
                           tmp_path) == ["box.py::Box.unused"]


def test_a_property_a_dunder_reads_is_in_use(tmp_path):
    """``repr`` calls ``__repr__`` implicitly and dunders are not
    pinned, so what one reads through ``self`` is not unreached."""
    (tmp_path / "batch.py").write_text(textwrap.dedent("""\
        class Batch:
            @property
            def width(self):
                return 1

            @property
            def unused(self):
                return 2

            def __repr__(self):
                return f"Batch(width={self.width})"
        """))
    assert reach.unreached(set(), tmp_path) == ["batch.py::Batch.unused"]
