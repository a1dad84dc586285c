"""Rare-event importance sampling for the deep low-LER tail.

Plain Monte Carlo needs ``~ z^2 / (rel^2 * LER)`` shots to pin a
logical error rate to a relative precision — millions of shots per
point below ``1e-5``, which is exactly where the paper's distance and
landscape sweeps bottom out.  This package estimates the same rates
with variance reduction instead of brute force:

* :mod:`~repro.rare.sampler` — :class:`SamplerSpec`, the declarative
  sampling measure carried by every :class:`~repro.injection.spec.
  InjectionTask`;
* :mod:`~repro.rare.stats` — weighted estimators (Horvitz-Thompson and
  self-normalized), effective-sample-size diagnostics, delta-method
  and weighted-Wilson confidence intervals;
* tilted Bernoulli sampling lives in the noise model's one site
  definition, :meth:`~repro.noise.base.SiteTable.tilted`: a frame
  program binds it (``FrameStructure.bind(noise, tilt=sampler)``) and
  the batched tableau executes that binding (``run_batch_noisy(...,
  tilt=sampler)``), so both backends sample the same sites at the same
  ``q`` and bank the same log-likelihood ratios;
* :mod:`~repro.rare.split` — multilevel splitting over compiled frame
  programs (systematic resampling toward high-syndrome trajectories);
* :mod:`~repro.rare.pilot` — the auto-tilt controller and the
  ``repro rare`` diagnostics.
"""

from .sampler import SAMPLER_KINDS, SamplerSpec, as_sampler
from .stats import (
    WeightStats,
    mc_required_shots,
    required_shots,
    variance_reduction_factor,
    wilson_from_rate,
)

__all__ = [
    "SAMPLER_KINDS",
    "SamplerSpec",
    "as_sampler",
    "WeightStats",
    "mc_required_shots",
    "required_shots",
    "variance_reduction_factor",
    "wilson_from_rate",
]
