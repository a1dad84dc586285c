"""Declarative rare-event sampler specifications.

A :class:`SamplerSpec` names the sampling measure a campaign point
draws its noise realisations from:

``"mc"``
    Plain Monte Carlo — the nominal noise model, unit weights.  The
    default; bit-identical to the engine's historical behaviour.
``"tilt"``
    Tilted Bernoulli sampling: every depolarize site fires at ``tilt``
    times its ``p``, clamped to ``p_cap`` but never below ``p``, and
    each shot carries the exact log-likelihood-ratio of its sampled
    realisation as an importance weight
    (:meth:`~repro.noise.base.SiteTable.tilted`, on both backends).  ``tilt = 0`` requests the
    auto-tilt controller (:mod:`repro.rare.pilot`): a short pilot run
    picks the tilt that minimises predicted shots-to-target from a
    geometric ladder.
``"split"``
    Multilevel splitting: the frame batch is resampled at ``levels``
    round boundaries with selection weight ``base ** syndrome_events``,
    cloning shots that look headed for logical failure and discounting
    their weights by the exact selection likelihood ratio
    (:mod:`repro.rare.split`).  Requires the frame backend.

The spec is a frozen dataclass — like :class:`~repro.injection.spec.
FaultSpec` it pickles cheaply, hashes, and participates in the campaign
store's task key (a different sampling measure draws a different random
stream, so it must shape the key).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Union

#: Recognised sampler kinds.
SAMPLER_KINDS = ("mc", "tilt", "split")

#: Tilted per-site firing probability is clamped here by default: a
#: depolarizing site past 1/2 is noise-dominated and the likelihood
#: ratio's variance explodes long before that.
DEFAULT_P_CAP = 0.5


@dataclass(frozen=True)
class SamplerSpec:
    """How a campaign point samples its noise realisations.

    Parameters
    ----------
    kind:
        ``"mc"`` (default), ``"tilt"`` or ``"split"``.
    tilt:
        Multiplier on every intrinsic depolarizing probability.  Only
        meaningful for ``kind="tilt"``; ``0.0`` (the default) selects
        the auto-tilt pilot controller, any other value must be >= 1.
    p_cap:
        Upper clamp on a tilted per-site probability.
    levels:
        Maximum resampling stages for ``kind="split"`` (placed evenly
        across the round boundaries; experiments with fewer interior
        rounds use what they have).
    base:
        Splitting selection weight per syndrome detection event:
        a shot with ``s`` events is cloned proportionally to
        ``base ** s``.  Must exceed 1.
    target_rel:
        Relative-CI budget the auto-tilt pilot optimises for (and the
        denominator of variance-reduction diagnostics).
    pilot_shots:
        Shots per ladder rung in the auto-tilt pilot.
    """

    kind: str = "mc"
    tilt: float = 0.0
    p_cap: float = DEFAULT_P_CAP
    levels: int = 2
    base: float = 2.0
    target_rel: float = 0.2
    pilot_shots: int = 1024

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; "
                             f"expected one of {SAMPLER_KINDS}")
        if self.tilt < 0.0:
            raise ValueError("tilt must be >= 1 (or 0 for auto)")
        if self.kind == "tilt" and 0.0 < self.tilt < 1.0:
            raise ValueError("tilt < 1 would sample the tail *less* "
                             "often; use 0 for the auto controller")
        if not 0.0 < self.p_cap <= 0.75:
            raise ValueError("p_cap must lie in (0, 0.75]")
        if self.levels < 1:
            raise ValueError("split needs at least one level")
        if self.base <= 1.0:
            raise ValueError("split selection base must exceed 1")
        if not 0.0 < self.target_rel < 1.0:
            raise ValueError("target_rel must lie in (0, 1)")
        if self.pilot_shots < 1:
            raise ValueError("pilot_shots must be positive")

    @property
    def weighted(self) -> bool:
        """Does this sampler attach non-unit importance weights?"""
        return self.kind != "mc"

    @property
    def auto_tilt(self) -> bool:
        return self.kind == "tilt" and self.tilt == 0.0

    @property
    def label(self) -> str:
        if self.kind == "tilt":
            return "tilt:auto" if self.auto_tilt else f"tilt:{self.tilt:g}"
        if self.kind == "split":
            return f"split:{self.levels}x{self.base:g}"
        return "mc"


def as_sampler(obj: Union["SamplerSpec", str, Mapping[str, Any], None]
               ) -> SamplerSpec:
    """Coerce a sweep-spec / CLI sampler description into a spec.

    Accepts a ready :class:`SamplerSpec`, ``None`` (plain MC), a kind
    string (``"tilt"`` / ``"tilt:8"`` with an inline tilt factor), or a
    JSON mapping ``{"kind": "tilt", "tilt": 8, ...}``.
    """
    if obj is None:
        return SamplerSpec()
    if isinstance(obj, SamplerSpec):
        return obj
    if isinstance(obj, str):
        kind, _, arg = obj.partition(":")
        if kind == "tilt" and arg:
            return SamplerSpec(kind="tilt", tilt=float(arg))
        if kind == "split" and arg:
            return SamplerSpec(kind="split", levels=int(arg))
        if arg:
            raise ValueError(f"sampler {obj!r} takes no argument")
        return SamplerSpec(kind=kind)
    if isinstance(obj, Mapping):
        return SamplerSpec(**{str(k): v for k, v in obj.items()})
    raise ValueError(f"cannot parse sampler spec {obj!r}")
