"""Auto-tilt controller: pick the tilt from a short pilot run.

Choosing a tilt by hand is the classic importance-sampling footgun:
too small and the tail stays unsampled, too large and a handful of
heavy weights dominate the estimator (ESS collapse).  The controller
makes the choice empirical and deterministic:

1. run a small pilot batch at each rung of a geometric tilt ladder,
   through the engine's own :func:`~repro.injection.campaign.
   execute_block` (identical sampling semantics to the real run);
2. for each rung with enough observed failures, predict the shots the
   Horvitz-Thompson estimator would need to reach the spec's
   ``target_rel`` relative CI from that rung's measured per-shot
   variance;
3. pin the rung with the smallest prediction.

Pilot blocks are seeded from the task seed along the reserved
``(3, rung, block)`` spawn path — disjoint from the campaign's block
streams and the frame reference pass — so the chosen tilt is a pure
function of the task spec: every worker process resolves the same tilt
and the campaign's bit-identity contract survives auto-tilting.

When no rung observes ``MIN_PILOT_ERRORS`` failures (the point is too
deep even for the pilot budget), the controller falls back to the most
aggressive rung: sampling more aggressively is the only move that can
surface the tail at all, and its weights stay bounded by the clamp.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..util.rng import derive_seed
from .sampler import SamplerSpec
from .stats import (WeightStats, mc_required_shots, required_shots,
                    variance_reduction_factor)

#: Geometric tilt ladder the pilot walks (1 = plain MC for reference).
PILOT_TILTS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
#: Failures a rung must observe before its variance estimate is
#: trusted for the argmin.
MIN_PILOT_ERRORS = 3
#: Simulation block size for pilot batches (kept modest so the pilot
#: stays a rounding error next to the campaign it tunes).
_PILOT_BLOCK = 512


@dataclass
class PilotRung:
    """Diagnostics for one ladder rung of a pilot run."""

    tilt: float
    shots: int
    errors: int
    stats: WeightStats

    @property
    def rate(self) -> float:
        return self.stats.estimate("sn")

    @property
    def ess_fraction(self) -> float:
        return self.stats.ess_fraction

    def predicted_shots(self, target_rel: float) -> float:
        """Shots the weighted estimator would need for the target."""
        p = self.stats.estimate("ht")
        if p <= 0.0 or self.errors == 0:
            return float("inf")
        return required_shots(self.stats.variance("ht") * self.shots,
                              p, target_rel)

    def to_row(self, target_rel: float) -> Dict[str, object]:
        pred = self.predicted_shots(target_rel)
        vrf = variance_reduction_factor(self.stats, target_rel)
        return {
            "tilt": self.tilt,
            "pilot_shots": self.shots,
            "errors": self.errors,
            "ler_sn": self.rate,
            "ess_frac": self.ess_fraction,
            "shots_to_target": (math.inf if math.isinf(pred)
                                else int(round(pred))),
            "var_reduction": vrf,
        }


def run_pilot(task, experiment, decoder, noise, program,
              sampler: SamplerSpec,
              tilts=PILOT_TILTS, tableau=None) -> List[PilotRung]:
    """Execute the pilot ladder for one task; returns per-rung stats.

    ``experiment``/``decoder``/``noise``/``program``/``tableau`` come
    from the caller's task context (the pilot never recompiles them: a
    frame or tableau program's structure is bound afresh under each
    rung's tilt).  Each
    rung runs ``sampler.pilot_shots`` shots in ``_PILOT_BLOCK``-sized
    batches on its own reserved seed path.
    """
    from ..injection.campaign import execute_block

    rungs: List[PilotRung] = []
    for k, tilt in enumerate(tilts):
        rung_sampler = dataclasses.replace(
            sampler, kind="tilt" if tilt != 1.0 else "mc",
            tilt=float(tilt))
        rung_tilt = rung_sampler if rung_sampler.kind == "tilt" else None
        rung_program, rung_tableau = (
            None if p is None else p.structure.bind(noise, rung_tilt)
            for p in (program, tableau))
        errors = 0
        stats = WeightStats()
        done = 0
        block = 0
        while done < sampler.pilot_shots:
            size = min(_PILOT_BLOCK, sampler.pilot_shots - done)
            rng = np.random.default_rng(
                derive_seed(task.seed, 3, k, block))
            (b_err, _, _, b_stats), = execute_block(
                experiment, decoder, noise, rung_program, rung_sampler,
                [size], [rng], tableau=rung_tableau)
            errors += b_err
            if b_stats is None:
                b_stats = WeightStats.from_counts(size, b_err)
            stats = stats + b_stats
            done += size
            block += 1
            obs.counter("rare.pilot_shots").inc(size)
        rungs.append(PilotRung(tilt=tilt, shots=done, errors=errors,
                               stats=stats))
    return rungs


def choose_tilt(rungs: List[PilotRung], target_rel: float) -> float:
    """The ladder rung minimising predicted shots-to-target.

    Rungs below :data:`MIN_PILOT_ERRORS` observed failures are not
    trusted (their variance estimate is noise); if *no* rung qualifies
    the deepest rung wins — see the module doc.
    """
    qualified = [r for r in rungs if r.errors >= MIN_PILOT_ERRORS
                 and r.tilt >= 1.0]
    if not qualified:
        return max(rungs, key=lambda r: r.tilt).tilt
    best = min(qualified,
               key=lambda r: (r.predicted_shots(target_rel), r.tilt))
    return best.tilt


def resolve_tilt(task, experiment, decoder, noise, program, tableau=None
                 ) -> SamplerSpec:
    """Resolve an auto-tilt sampler to a concrete pinned tilt."""
    sampler = task.sampler
    with obs.span("pilot"):
        rungs = run_pilot(task, experiment, decoder, noise, program,
                          sampler, tableau=tableau)
        tilt = choose_tilt(rungs, sampler.target_rel)
    obs.gauge("rare.pilot_tilt").set(max(1.0, float(tilt)))
    return dataclasses.replace(sampler, tilt=max(1.0, float(tilt)))


def pilot_report(task, target_rel: Optional[float] = None
                 ) -> List[Dict[str, object]]:
    """Run the pilot for ``task`` and return its diagnostics rows
    (the ``repro rare`` command's table)."""
    from ..injection.campaign import _task_context

    # Pin a concrete tilt so the context lookup does not itself run an
    # auto-tilt pilot before this explicit one.
    pinned = (task.sampler.tilt if task.sampler.kind == "tilt"
              and task.sampler.tilt >= 1.0 else 1.0)
    base = dataclasses.replace(
        task, sampler=dataclasses.replace(task.sampler, kind="tilt",
                                          tilt=pinned))
    experiment, decoder, noise, program, _, tableau = _task_context(base)
    sampler = base.sampler
    rel = sampler.target_rel if target_rel is None else target_rel
    rungs = run_pilot(base, experiment, decoder, noise, program, sampler,
                      tableau=tableau)
    chosen = choose_tilt(rungs, rel)
    rows = []
    for rung in rungs:
        row = rung.to_row(rel)
        row["chosen"] = "*" if rung.tilt == chosen else ""
        rows.append(row)
    return rows
