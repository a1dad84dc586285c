"""What ``import repro`` loads.

Every ``repro`` module the package's ``__init__`` pulls in is paid for
by every command, campaign worker and service runner before its first
shot.  The list is pinned so that a module only a test uses cannot
creep back into the import graph, and so that shrinking the graph is a
deliberate, visible change to this list.
"""

import os
import subprocess
import sys

import repro

#: Sorted ``repro.*`` entries of ``sys.modules`` after a bare
#: ``import repro`` in a fresh interpreter.
IMPORT_REPRO = [
    "repro", "repro.arch", "repro.arch.graph", "repro.arch.library",
    "repro.circuits", "repro.circuits.circuit", "repro.circuits.gates",
    "repro.codes", "repro.codes.base", "repro.codes.repetition",
    "repro.codes.rotated", "repro.codes.xxzz", "repro.decoders",
    "repro.decoders.base", "repro.decoders.batch",
    "repro.decoders.detector_graph", "repro.decoders.matching",
    "repro.decoders.spec", "repro.decoders.unionfind", "repro.frames",
    "repro.frames.packing", "repro.frames.program",
    "repro.frames.simulator", "repro.injection",
    "repro.injection.adaptive", "repro.injection.campaign",
    "repro.injection.results", "repro.injection.spec",
    "repro.injection.store", "repro.injection.sweep", "repro.noise",
    "repro.noise.base", "repro.noise.depolarizing",
    "repro.noise.erasure", "repro.noise.executor",
    "repro.noise.radiation", "repro.obs", "repro.obs.bench",
    "repro.obs.metrics", "repro.obs.prof", "repro.obs.report",
    "repro.obs.sinks", "repro.obs.trace", "repro.rare",
    "repro.rare.sampler", "repro.rare.stats", "repro.stabilizer",
    "repro.stabilizer.pauli", "repro.transpile",
    "repro.transpile.layout", "repro.transpile.routing",
    "repro.transpile.transpiler", "repro.util", "repro.util.bits",
    "repro.util.rng",
]

PROBE = ("import sys, repro; print('\\n'.join(sorted(m for m in sys.modules "
         "if m == 'repro' or m.startswith('repro.'))))")


def test_import_repro_loads_the_pinned_modules():
    assert probe(PROBE) == IMPORT_REPRO


#: A one-worker campaign, then every ``repro.*`` module it loaded.
CAMPAIGN_PROBE = (
    "import sys\n"
    "from repro import Campaign, CodeSpec, InjectionTask\n"
    "task = InjectionTask(code=CodeSpec('repetition', (3, 1)),\n"
    "                     intrinsic_p=0.05, shots=1024, seed=1)\n"
    "Campaign([task]).run(workers=1)\n"
    "print('\\n'.join(sorted(m for m in sys.modules\n"
    "                         if m.startswith('repro.'))))\n")


def probe(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.split()


def test_one_worker_campaign_loads_no_service_module():
    """The campaign scheduler shares its lease queue with the service
    head, but ``repro.parallel`` must never pull in the HTTP head."""
    loaded = probe(CAMPAIGN_PROBE)
    assert "repro.parallel.plan" in loaded
    assert not [m for m in loaded if m.startswith("repro.service")]


def test_public_names_ship_no_oracle():
    assert len(repro.__all__) == 38
    assert not {"Tableau", "TableauSimulator"} & set(repro.__all__)


#: Build a task with a non-default recovery policy (validated against
#: the policy names), then every ``repro.detect`` module loaded.
TASK_PROBE = (
    "import sys\n"
    "from repro import CodeSpec, InjectionTask\n"
    "InjectionTask(code=CodeSpec('repetition', (3, 1)),\n"
    "              recovery='reweight')\n"
    "print('\\n'.join(sorted(m for m in sys.modules\n"
    "                         if m.startswith('repro.detect'))))\n")


def test_building_a_task_loads_no_detect_module():
    """The spec checks the recovery name without importing the policies'
    implementation: every campaign, worker and runner builds tasks."""
    assert probe(TASK_PROBE) == []
