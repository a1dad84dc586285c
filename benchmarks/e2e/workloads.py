"""The four benchmark workloads: generated inputs, entry calls, sizes.

Each workload is a list of plain JSON-able sweep specs made from the
workload seed alone (the seed becomes every campaign's ``root_seed``),
so the program under test only ever sees generated inputs.  ``SIZES``
holds the two budgets a workload runs at: ``default`` is what
``BENCHMARK.json`` measures, ``smoke`` is the seconds-scale variant the
smoke test uses.  Nothing here imports :mod:`repro` — the measuring
parent reads names and point counts without paying the import.

Why these four, and what each deliberately bypasses, is recorded in
``WHY`` (one line each, mirrored into ``BENCHMARK.json``) and at length
in ``README.md``.
"""

from __future__ import annotations

from typing import Dict, List

#: Fixed workload order; later issues cite these names.
NAMES = ("quiet_deep", "strike_decode", "fig5_grid", "service_sweep")

WHY: Dict[str, str] = {
    "quiet_deep":
        "one quiet XXZZ(5,5) point run to a Wilson CI on the serial "
        "streamer: frames kernels do nearly all the work, the matcher "
        "almost none",
    "strike_decode":
        "radiation strike on XXZZ(5,5), MWPM then union-find: nearly "
        "every syndrome is distinct, so the matcher does the work and "
        "the sampler almost none",
    "fig5_grid":
        "the paper's Fig. 5 grid on two worker processes: the XXZZ "
        "half falls back to the batched tableau, and transpile, "
        "scheduler and shard merge all run",
    "service_sweep":
        "Fig. 8-shaped sweep of tiny points through the HTTP head, "
        "then resubmitted from cache: per-point compile, lease, "
        "JSON/HTTP and store costs dominate, kernels do not",
}

#: How a workload enters the system.
#:   direct  - Campaign.run(workers=W, resume=store[, adaptive=...])
#:   service - in-process CampaignService + ServiceClient.submit/.wait
ENTRY = {"quiet_deep": "direct", "strike_decode": "direct",
         "fig5_grid": "direct", "service_sweep": "service"}

#: Worker processes requested on the untraced runs (capped at the CPUs
#: the unit sees).  The traced run always uses 1: forked workers cannot
#: ship spans back.
WORKERS = {"quiet_deep": 1, "strike_decode": 1, "fig5_grid": 2,
           "service_sweep": 1}

#: Resubmits of the finished spec per service run (the cached phase).
CACHED_REPEATS = {"default": 10, "smoke": 3}

SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "quiet_deep": {
        # Time to a +-rel_halfwidth Wilson interval under a shot ceiling.
        "default": {"rel_halfwidth": 0.04, "ceiling": 2_000_000},
        "smoke": {"rel_halfwidth": 0.2, "ceiling": 65_536},
    },
    "strike_decode": {
        "default": {"shots": 1024, "time_indices": (0, 1, 2)},
        "smoke": {"shots": 128, "time_indices": (0, 1, 2)},
    },
    "fig5_grid": {
        "default": {"shots": 512, "exponents": tuple(range(-8, 0)),
                    "time_indices": (0, 2, 4, 6, 8)},
        "smoke": {"shots": 64, "exponents": (-8, -2),
                  "time_indices": (0, 9)},
    },
    "service_sweep": {
        "default": {"shots": 512, "distances": (3, 5, 7, 9),
                    "roots": (0, 5), "time_indices": (0, 4, 8),
                    "p_values": (1e-4, 1e-3, 1e-2)},
        "smoke": {"shots": 64, "distances": (3, 5), "roots": (0,),
                  "time_indices": (0, 8), "p_values": (1e-3,)},
    },
}


def _radiation(root: int, time_index: int) -> Dict[str, object]:
    return {"kind": "radiation", "root_qubit": root,
            "time_index": time_index}


def specs(name: str, seed: int, size: str = "default"
          ) -> List[Dict[str, object]]:
    """The workload's sweep specs for one seed, in execution order.

    A workload with more than one spec is one campaign: the specs'
    tasks are concatenated in order (a sweep spec is a Cartesian
    product, and neither "MWPM then union-find" nor "each code on its
    own lattice" is one).
    """
    knobs = SIZES[name][size]
    seed = int(seed)
    if name == "quiet_deep":
        return [{
            "codes": [{"kind": "xxzz", "distance": [5, 5]}],
            "rounds": 5, "p_values": [5e-4], "decoder": "mwpm",
            "backend": "frames", "shots": knobs["ceiling"],
            "root_seed": seed, "tags": {"workload": name},
        }]
    if name == "strike_decode":
        return [{
            "codes": [{"kind": "xxzz", "distance": [5, 5]}],
            "rounds": 5, "p_values": [1e-3], "decoder": decoder,
            "backend": "frames", "shots": knobs["shots"],
            "faults": [_radiation(12, t) for t in knobs["time_indices"]],
            "root_seed": seed, "tags": {"workload": name},
        } for decoder in ("mwpm", "union-find")]
    if name == "fig5_grid":
        return [{
            "codes": [code], "archs": [arch],
            "faults": [_radiation(2, t) for t in knobs["time_indices"]],
            "p_values": [10.0 ** e for e in knobs["exponents"]],
            "backend": "auto", "shots": knobs["shots"],
            "root_seed": seed, "tags": {"workload": name},
        } for code, arch in (
            ({"kind": "repetition", "distance": [5, 1]},
             {"name": "mesh", "args": [5, 2]}),
            ({"kind": "xxzz", "distance": [3, 3]},
             {"name": "mesh", "args": [5, 4]}))]
    if name == "service_sweep":
        return [{
            "codes": [{"kind": "repetition", "distance": [d, 1]}
                      for d in knobs["distances"]],
            "archs": [{"name": "mesh", "args": [5, 4]}, "almaden",
                      "johannesburg", "cairo"],
            "faults": [{"kind": "none"}] + [
                _radiation(root, t) for root in knobs["roots"]
                for t in knobs["time_indices"]],
            "p_values": list(knobs["p_values"]),
            "shots": knobs["shots"], "root_seed": seed,
            "tags": {"workload": name},
        }]
    raise KeyError(f"unknown workload {name!r}; expected one of {NAMES}")


def adaptive_knobs(name: str, size: str = "default"):
    """``(rel_halfwidth, ceiling)`` for the time-to-CI workload, else
    ``None`` (fixed shot budgets)."""
    if name != "quiet_deep":
        return None
    knobs = SIZES[name][size]
    return float(knobs["rel_halfwidth"]), int(knobs["ceiling"])


def points(name: str, size: str = "default") -> int:
    """How many campaign points the workload expands to."""
    return sum(len(spec["codes"]) * len(spec.get("archs", [None]))
               * len(spec.get("faults", [None]))
               * len(spec.get("p_values", [None]))
               for spec in specs(name, 0, size))
