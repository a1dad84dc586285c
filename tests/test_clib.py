"""A C compiler is required: every kernel loads on its first use, and a
host without a compiler imports ``repro`` fine but gets one clear
``RuntimeError`` on the first sample or decode."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import _clib

#: First uses of each kernel in a fresh process: a frames sample (twice:
#: the decision is made once), an MWPM decode and a union-find decode.
PROBE = """if True:
    import json
    import numpy as np
    import repro
    from repro.codes import RepetitionCode, build_memory_experiment
    from repro.decoders import decoder_for
    from repro.noise import run_batch_noisy

    experiment = build_memory_experiment(RepetitionCode(3), rounds=1)

    def decode(kind):
        decoder = decoder_for(experiment, kind)
        bits = np.zeros(decoder.graph.num_nodes, dtype=np.uint8)
        bits[:2] = 1
        return decoder.decode_detectors(bits)

    errors = []
    for attempt in (
            lambda: run_batch_noisy(experiment.circuit, None, 64, rng=0,
                                    backend="frames"),
            lambda: run_batch_noisy(experiment.circuit, None, 64, rng=0,
                                    backend="frames"),
            lambda: decode("mwpm"), lambda: decode("union-find")):
        try:
            attempt()
            errors.append(None)
        except RuntimeError as exc:
            errors.append(str(exc))
    print(json.dumps(errors))
"""


def test_no_compiler_fails_clearly_on_first_use(tmp_path):
    """``PATH`` cut to an empty directory and empty cache directories
    (``XDG_CACHE_HOME``, ``HOME``, ``TMPDIR``): ``import repro``
    succeeds, and each kernel's first use raises one error naming the
    kernel, the compilers tried and the cache directories."""
    dirs = {name: tmp_path / name for name in ("bin", "xdg", "home", "tmp")}
    for path in dirs.values():
        path.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PATH": str(dirs["bin"]),
           "XDG_CACHE_HOME": str(dirs["xdg"]), "HOME": str(dirs["home"]),
           "TMPDIR": str(dirs["tmp"]),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    frames, again, mwpm, union_find = json.loads(out)
    for error, source in ((frames, "_kernel.c"), (mwpm, "_blossom.c"),
                          (union_find, "_unionfind.c")):
        assert error is not None
        assert source in error
        assert "C compiler (cc or gcc)" in error
        assert str(dirs["xdg"]) in error and str(dirs["home"]) in error
    assert again == frames


def test_a_failed_load_is_decided_once(monkeypatch):
    """The first failure is the answer for the life of the loader: the
    same error again, no second build attempt."""
    attempts = []

    def load(source, stem):
        attempts.append(stem)
        raise RuntimeError("no C compiler (cc, gcc) on PATH")

    monkeypatch.setattr(_clib, "_load", load)
    loader = _clib.Loader("kernel.c", "probe", lambda lib: lib)
    with pytest.raises(RuntimeError, match="kernel.c kernel did not load") \
            as first:
        loader()
    with pytest.raises(RuntimeError) as second:
        loader()
    assert second.value is first.value
    assert attempts == ["probe"]


def test_a_loaded_kernel_is_kept(monkeypatch):
    calls = []
    monkeypatch.setattr(_clib, "_load", lambda source, stem: "library")
    loader = _clib.Loader("kernel.c", "probe",
                          lambda lib: calls.append(lib) or object())
    assert loader() is loader()
    assert calls == ["library"]


def _probe_source(path, value):
    path.write_text(f"int probe(void) {{ return {value}; }}\n")
    return str(path)


def _built(root):
    return sorted(p.name for p in root.iterdir())


def test_a_source_edit_builds_beside_the_old_library(tmp_path, monkeypatch):
    """A library is cached under the hash of its source: a second load
    builds nothing, and an edited source gets a new file beside the
    old one."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    cache = tmp_path / "xdg" / "repro"
    source = _probe_source(tmp_path / "probe.c", 1)
    assert _clib._load(source, "probe").probe() == 1
    first = _built(cache)
    assert len(first) == 1 and first[0].startswith("probe-")

    def no_build(source, target):
        raise AssertionError("rebuilt a cached library")

    with monkeypatch.context() as cached:
        cached.setattr(_clib, "_build", no_build)
        assert _clib._load(source, "probe").probe() == 1
    _probe_source(tmp_path / "probe.c", 2)
    assert _clib._load(source, "probe").probe() == 2
    second = _built(cache)
    assert len(second) == 2 and set(first) < set(second)


def test_an_unusable_cache_dir_falls_through_to_the_next(tmp_path,
                                                         monkeypatch):
    """A cache directory that cannot be made is skipped for the next;
    when none can, the last directory's error is raised."""
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where a directory should be")
    good = tmp_path / "good"
    source = _probe_source(tmp_path / "probe.c", 3)
    monkeypatch.setattr(_clib, "_cache_dirs",
                        lambda: iter([str(blocked / "repro"), str(good)]))
    assert _clib._load(source, "probe").probe() == 3
    assert len(_built(good)) == 1
    monkeypatch.setattr(_clib, "_cache_dirs",
                        lambda: iter([str(blocked / "repro")]))
    with pytest.raises(OSError):
        _clib._load(source, "probe")


def test_a_compiler_error_is_reported(tmp_path, monkeypatch):
    """A compiler that fails names itself and the tail of its stderr in
    the loader's error, and leaves no file in the cache."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    compiler = bin_dir / "cc"
    compiler.write_text("#!/bin/sh\necho 'probe.c:1: broken' >&2\nexit 1\n")
    compiler.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    source = _probe_source(tmp_path / "probe.c", 4)
    loader = _clib.Loader(source, "probe", lambda lib: lib)
    with pytest.raises(RuntimeError, match="probe.c kernel did not load") \
            as failed:
        loader()
    assert f"{compiler} failed: probe.c:1: broken" in str(failed.value)
    assert _built(tmp_path / "xdg" / "repro") == []
